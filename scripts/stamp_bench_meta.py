#!/usr/bin/env python3
"""stamp_bench_meta.py — record the host and the commit in BENCH_*.json files.

Usage: scripts/stamp_bench_meta.py FILE...
       scripts/stamp_bench_meta.py --self-test

Adds meta.host {cpu, nproc} and meta.commit {sha, dirty} to each JSON
document in place (rewritten compact, on one line), so every committed
baseline names the machine and the code it was measured on. `dirty` is 1
when tracked files other than the BENCH_*.json baselines at the repo root
differ from HEAD: the suites write those baselines before stamping them, so
counting them would mark every default-path run dirty. The bench-json rule
of scripts/check_invariants.py requires meta.host.cpu and meta.commit.sha.

--self-test stamps a committed BENCH_*.json in a scratch git repo and
checks that dirty is 0 on a clean tree and 1 once another file is edited.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(root: Path, *args: str) -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def stamp(paths: list[Path], root: Path = REPO_ROOT) -> None:
    host = {"cpu": _cpu_model(), "nproc": os.cpu_count() or 0}
    commit = {
        "sha": _git(root, "rev-parse", "HEAD") or "unknown",
        "dirty": int(bool(_git(root, "status", "--porcelain",
                               "--untracked-files=no", "--", ".",
                               ":(exclude)BENCH_*.json"))),
    }
    for path in paths:
        doc = json.loads(path.read_text())
        meta = doc.setdefault("meta", {})
        meta["host"] = host
        meta["commit"] = commit
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def self_test() -> int:
    with tempfile.TemporaryDirectory(prefix="seesaw-stamp-selftest-") as td:
        root = Path(td)
        bench = root / "BENCH_x.json"
        other = root / "code.cc"
        bench.write_text('{"rows": [{"ms": 1.0}]}\n')
        other.write_text("int x = 0;\n")
        ident = ["-c", "user.name=selftest", "-c", "user.email=selftest@invalid"]
        for args in (["init", "-q"], ["add", "."],
                     [*ident, "commit", "-q", "-m", "seed"]):
            subprocess.run(["git", "-C", str(root), *args], check=True,
                           capture_output=True)

        def dirty() -> int:
            return json.loads(bench.read_text())["meta"]["commit"]["dirty"]

        failures = []
        stamp([bench], root)
        if dirty() != 0:
            failures.append("clean tree stamped dirty=1")
        stamp([bench], root)  # the file is now modified, still not dirty
        if dirty() != 0:
            failures.append("restamping a tracked BENCH file stamped dirty=1")
        other.write_text("int x = 1;\n")
        stamp([bench], root)
        if dirty() != 1:
            failures.append("edited tracked file stamped dirty=0")
    for f in failures:
        print(f"self-test: {f}", file=sys.stderr)
    if failures:
        print("stamp_bench_meta self-test FAILED", file=sys.stderr)
        return 1
    print("stamp_bench_meta self-test OK")
    return 0


def main() -> int:
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    stamp([Path(name) for name in sys.argv[1:]])
    return 0


if __name__ == "__main__":
    sys.exit(main())
