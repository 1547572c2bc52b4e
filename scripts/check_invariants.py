#!/usr/bin/env python3
"""check_invariants.py — custom linter for SeeSaw-specific contracts.

These are repo invariants no off-the-shelf tool knows about; each one
encodes a rule a past PR established and a future refactor could silently
break. Run from anywhere (the repo root is derived from this file's
location); exits 0 when clean, 1 with one line per violation otherwise.

Rules
  scan-control      Every TopK/TopKBatch override anywhere in src/ (local
                    backends in src/store, remote ones in src/net) must
                    thread store::ScanControl — the in-scan cancellation
                    seam that a new backend could quietly drop, turning
                    cancelled speculations back into run-to-completion
                    scans.
  single-scan-path  No TopK override in src/ or tools/: TopKBatch is the one
                    scan path every backend implements, and VectorStore::TopK
                    is a batch of one over it. A backend-specific TopK would
                    bring back the second path (and the parity tests it
                    needs) that the one-path design deleted.
  one-seen-walk     No src/store/*.cc but seen_set.cc reads SeenSet::words():
                    NextUnseenRuns is the one walk of the seen bitmap.
  one-scatter       Under src/store, MergeTopK(, ParallelFor( and
                    SubmitWithResult( appear only in vector_store.cc
                    (ScatterTopK, the one scatter/merge, fans out through
                    SubmitWithResult), plus the per-query ParallelFor
                    fan-outs of ivf_index.cc and annoy_index.cc.
  certified-scan    ActiveInt8Kernels( appears under src/ only in
                    store/exact_store.cc and linalg/: the int8 kernels score
                    rows only inside the certified scan, whose fp32 rescore
                    keeps results exact, so no second, approximate int8 scan
                    can creep back. And ScanPrecision appears nowhere in
                    src/, tools/, tests/, bench/ or examples/: there is one
                    scan, not a precision choice.
  raw-threading     No raw std::thread / std::mutex / std::condition_variable
                    / lock_guard / unique_lock / scoped_lock / detach() in
                    src outside common/ (and none anywhere in bench/ or
                    examples/). Everything must go through the annotated
                    seesaw::Mutex / MutexLock / CondVar / ThreadPool wrappers
                    so the Clang -Wthread-safety analysis can see every
                    acquire. (tests/ may drive raw std::thread — their gate
                    is the concurrency-tests rule below.)
  kernel-libm       Kernel implementation files (src/linalg/kernels_*.cc)
                    must not call libm reductions outside the fixed
                    accumulation spec: std::fmaf is the spec's only sanctioned
                    libm call (single rounding, bitwise-pinned); exp/log/pow/
                    sqrt/tanh or std::accumulate/std::reduce would break the
                    cross-kernel bitwise-parity contract (PR 3).
  concurrency-tests Every test file using ThreadPool — or including the
                    serving/session headers (net/server.h, net/client.h,
                    core/session_manager.h), whose objects spin up pool
                    threads internally — must be registered in
                    SEESAW_CONCURRENCY_TESTS (CMakeLists.txt) so the TSan CI
                    leg runs it — an unregistered suite is concurrency code
                    TSan never sees.
  fault-coverage    Every class in src/net/*.h that talks to a peer — a
                    VectorStore implementation, or any class owning a
                    Transport or an RpcChannel — can fail in ways no
                    in-process code can (dead peer, deadline, shed,
                    retries), so it must have a fault-injection suite: a
                    tests/*.cc that includes its header AND
                    tests/fault_socket.h (the scripted Transport harness)
                    and is registered in SEESAW_CONCURRENCY_TESTS. A client
                    whose failure semantics nothing exercises would rot
                    into hangs or silent partials.
  net-sockets       Raw socket/poll syscalls and their headers are confined
                    to src/net/ (PR 8): everything else goes through the
                    SeeSawClient/SeeSawServer seam, so there is exactly one
                    place that owns fd lifetimes, EINTR loops, and SIGPIPE
                    suppression. Scans src/ (minus src/net), bench/, tools/
                    and examples/.
  atomic-layout     Structs/classes in src/ that pack multiple raw
                    std::atomic members together, or mix a Mutex with a raw
                    atomic, are false-sharing hazards (PR 9): contended
                    writers ping-pong the shared cache line, and a mutex's
                    futex word next to a spinning reader's flag degrades
                    both. Such a type must either pad the atomics
                    (CacheAligned<...> / alignas) or carry a
                    "layout-audited:" comment inside the type body
                    documenting why packing is the right call (e.g. cold
                    monotone stat counters). Wrapped/alignas'd atomics don't
                    count as raw; the exemption token is per-type.
  bench-json        Committed BENCH_*.json baselines must parse, carry
                    non-empty "rows", and (for the latency benches
                    BENCH_scale.json / BENCH_topk.json / BENCH_serving.json)
                    every row must carry p50/p95/p99 latency keys — the
                    percentile contract the scale work (PR 6) established for
                    anything claiming a latency number.

Self-test: --self-test seeds one violation per rule into a scratch tree and
asserts the rule catches it (and that a clean miniature tree passes), so the
linter cannot rot into a silent no-op.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _strip_comments(text: str) -> str:
    """Removes // and /* */ comments (so commented-out code can't trip rules)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


# --------------------------------------------------------------- scan-control
# Matches a TopK/TopKBatch member declaration/definition up to its parameter
# list, tolerating multi-line parameter lists.
_TOPK_SIG = re.compile(
    r"\b(TopK|TopKBatch)\s*\(([^;{]*?)\)\s*(?:const\s*)?override", re.DOTALL
)


def _sources(root: Path, dirs: tuple[str, ...]):
    """Yields every .h/.cc/.cpp file under root/<dir> for each dir."""
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".cc", ".cpp"):
                yield path


def check_scan_control(root: Path) -> list[str]:
    errors = []
    for path in _sources(root, ("src",)):
        text = _strip_comments(path.read_text())
        for m in _TOPK_SIG.finditer(text):
            name, params = m.group(1), m.group(2)
            if "ScanControl" not in params:
                line = text[: m.start()].count("\n") + 1
                errors.append(
                    f"{path.relative_to(root)}:{line}: [scan-control] "
                    f"{name} override does not take a store::ScanControl — "
                    "in-scan cancellation would be dropped for this backend"
                )
    return errors


# ----------------------------------------------------------- single-scan-path
# A TopK (not TopKBatch) override: the scalar second path.
_TOPK_OVERRIDE = re.compile(
    r"\bTopK\s*\([^;{]*?\)\s*(?:const\s*)?override", re.DOTALL
)


def check_single_scan_path(root: Path) -> list[str]:
    errors = []
    for path in _sources(root, ("src", "tools")):
        text = _strip_comments(path.read_text())
        for m in _TOPK_OVERRIDE.finditer(text):
            line = text[: m.start()].count("\n") + 1
            errors.append(
                f"{path.relative_to(root)}:{line}: [single-scan-path] TopK "
                "override — implement TopKBatch only; VectorStore::TopK is "
                "already a batch of one over it"
            )
    return errors


def _matches(root: Path, paths, pattern: re.Pattern, tag: str, why):
    """One "[tag]" error per match of `pattern` in the comment-stripped text
    of each path; `why(path, match)` words the error, or returns None when
    that match is allowed."""
    errors = []
    for path in paths:
        text = _strip_comments(path.read_text())
        for m in pattern.finditer(text):
            reason = why(path, m)
            if reason is not None:
                line = text[: m.start()].count("\n") + 1
                errors.append(f"{path.relative_to(root)}:{line}: [{tag}] {reason}")
    return errors


# -------------------------------------------------------------- one-seen-walk
_WORDS_READ = re.compile(r"\.words\s*\(\s*\)")


def check_one_seen_walk(root: Path) -> list[str]:
    stores = (root / "src" / "store").glob("*.cc")
    return _matches(
        root, sorted(p for p in stores if p.name != "seen_set.cc"),
        _WORDS_READ, "one-seen-walk",
        lambda path, m: "reads SeenSet::words() — take unseen runs from "
        "SeenSet::NextUnseenRuns, the one seen-run walk",
    )


# ---------------------------------------------------------------- one-scatter
_SCATTER_CALL = re.compile(
    r"\b(MergeTopK|ParallelFor|SubmitWithResult)\s*\("
)
# Per-query fan-outs (one task per query, no cross-part merge).
_PER_QUERY_FANOUT = {"ivf_index.cc", "annoy_index.cc"}


def _scatter_outside_home(path: Path, m: re.Match):
    if path.name == "vector_store.cc" or (
        m.group(1) == "ParallelFor" and path.name in _PER_QUERY_FANOUT
    ):
        return None
    return (f"{m.group(1)} outside store/vector_store.cc — scatter parts and "
            "merge them through ScatterTopK")


def check_one_scatter(root: Path) -> list[str]:
    return _matches(root, _sources(root, ("src/store",)), _SCATTER_CALL,
                    "one-scatter", _scatter_outside_home)


# ------------------------------------------------------------- certified-scan
_INT8_DISPATCH = re.compile(r"\bActiveInt8Kernels\s*\(")
_SCAN_PRECISION = re.compile(r"\bScanPrecision\b")


def _int8_outside_home(root: Path):
    def why(path: Path, m: re.Match):
        rel = path.relative_to(root).as_posix()
        if rel == "src/store/exact_store.cc" or rel.startswith("src/linalg/"):
            return None
        return ("ActiveInt8Kernels( outside store/exact_store.cc and "
                "linalg/ — int8 scores are only used inside the certified "
                "scan, which rescores its candidates in fp32")
    return why


def check_certified_scan(root: Path) -> list[str]:
    errors = _matches(root, _sources(root, ("src",)), _INT8_DISPATCH,
                      "certified-scan", _int8_outside_home(root))
    errors += _matches(
        root, _sources(root, ("src", "tools", "tests", "bench", "examples")),
        _SCAN_PRECISION, "certified-scan",
        lambda path, m: "ScanPrecision is gone — the store has one exact "
        "scan, not a precision choice",
    )
    return errors


# -------------------------------------------------------------- raw-threading
_RAW_THREADING = [
    (re.compile(r"std::thread\b(?!\s*::)"), "std::thread"),
    (re.compile(r"std::jthread\b"), "std::jthread"),
    (re.compile(r"std::(?:timed_|recursive_|shared_)?mutex\b"), "std::mutex"),
    (re.compile(r"std::condition_variable(?:_any)?\b"), "std::condition_variable"),
    (re.compile(r"std::lock_guard\b"), "std::lock_guard"),
    (re.compile(r"std::unique_lock\b"), "std::unique_lock"),
    (re.compile(r"std::scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\.detach\s*\(\s*\)"), ".detach()"),
]


def check_raw_threading(root: Path) -> list[str]:
    errors = []
    scan_dirs = [root / "src", root / "bench", root / "examples"]
    for base in scan_dirs:
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(root)
            # common/ owns the annotated wrappers and the pool's workers.
            if rel.parts[:2] == ("src", "common"):
                continue
            text = _strip_comments(path.read_text())
            for pattern, label in _RAW_THREADING:
                for m in pattern.finditer(text):
                    line = text[: m.start()].count("\n") + 1
                    errors.append(
                        f"{rel}:{line}: [raw-threading] {label} outside "
                        "src/common — use seesaw::Mutex/MutexLock/CondVar/"
                        "ThreadPool (common/mutex.h) so -Wthread-safety can "
                        "see the acquire"
                    )
    return errors


# ---------------------------------------------------------------- kernel-libm
# The fixed accumulation spec (linalg/simd.h) pins every float operation in
# the scoring kernels; std::fmaf is its one sanctioned libm call. Anything
# else from libm — or a std::accumulate/std::reduce whose association order
# the implementation may choose — would break cross-kernel bitwise parity.
_KERNEL_FORBIDDEN = re.compile(
    r"\bstd::(?:exp|exp2|expm1|log|log2|log10|log1p|pow|sqrt|cbrt|hypot|"
    r"sin|cos|tan|tanh|erf|tgamma|lgamma|accumulate|reduce)\b"
    r"|\b(?:expf|logf|powf|sqrtf|tanhf|hypotf)\s*\("
)


def check_kernel_libm(root: Path) -> list[str]:
    errors = []
    for path in sorted((root / "src" / "linalg").glob("kernels_*.cc")):
        text = _strip_comments(path.read_text())
        for m in _KERNEL_FORBIDDEN.finditer(text):
            line = text[: m.start()].count("\n") + 1
            errors.append(
                f"{path.relative_to(root)}:{line}: [kernel-libm] "
                f"'{m.group(0).strip('(').strip()}' in a kernel file — only "
                "std::fmaf is inside the fixed accumulation spec; other libm "
                "reductions break cross-kernel bitwise parity"
            )
    return errors


# ---------------------------------------------------------------- net-sockets
# The serving front end (src/net) is the single owner of raw sockets: fd
# RAII, EINTR loops, MSG_NOSIGNAL, non-blocking setup. A bench, tool, or
# other src/ layer reaching for the syscalls directly would fork that
# ownership — it must go through net::SeeSawClient / net::SeeSawServer (or
# the net/socket.h helpers) instead.
_SOCKET_HEADER = re.compile(
    r"#\s*include\s*<(?:sys/socket\.h|sys/epoll\.h|sys/select\.h|poll\.h|"
    r"netinet/[^>]+|arpa/inet\.h)>"
)
_SOCKET_CALL = re.compile(
    r"::(?:socket|bind|listen|accept4?|connect|recv(?:from|msg)?|"
    r"send(?:to|msg)?|poll|epoll_(?:create1?|ctl|wait)|select|shutdown|"
    r"(?:get|set)sockopt|getsockname|getpeername)\s*\("
    r"|\bsockaddr_in\b"
)


def check_net_sockets(root: Path) -> list[str]:
    errors = []
    scan_dirs = [root / "src", root / "bench", root / "tools", root / "examples"]
    for base in scan_dirs:
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(root)
            # src/net owns the syscall layer.
            if rel.parts[:2] == ("src", "net"):
                continue
            text = _strip_comments(path.read_text())
            for pattern, label in (
                (_SOCKET_HEADER, "socket header"),
                (_SOCKET_CALL, "raw socket syscall"),
            ):
                for m in pattern.finditer(text):
                    line = text[: m.start()].count("\n") + 1
                    errors.append(
                        f"{rel}:{line}: [net-sockets] {label} "
                        f"'{m.group(0).strip()}' outside src/net — go through "
                        "net::SeeSawClient/SeeSawServer or net/socket.h so fd "
                        "ownership stays in one place"
                    )
    return errors


# ---------------------------------------------------------- concurrency-tests
_CMAKE_LIST = re.compile(
    r"set\(SEESAW_CONCURRENCY_TESTS\s+(.*?)\)", re.DOTALL
)

# Including any of these makes a test a concurrency suite even if it never
# names ThreadPool: a SeeSawServer runs its own event-loop thread plus
# handler-pool dispatch, and a SessionManager owns a shared lookup pool.
_CONCURRENCY_HEADERS = re.compile(
    r'#\s*include\s*"(?:net/server\.h|net/client\.h|core/session_manager\.h)"'
)


def check_concurrency_tests(root: Path) -> list[str]:
    cmake = root / "CMakeLists.txt"
    if not cmake.is_file():
        return [f"CMakeLists.txt: [concurrency-tests] file missing"]
    m = _CMAKE_LIST.search(cmake.read_text())
    if m is None:
        return [
            "CMakeLists.txt: [concurrency-tests] no "
            "set(SEESAW_CONCURRENCY_TESTS ...) block found"
        ]
    registered = set(m.group(1).split())
    errors = []
    tests_dir = root / "tests"
    if not tests_dir.is_dir():
        return errors
    for path in sorted(tests_dir.glob("*.cc")):
        text = _strip_comments(path.read_text())
        if path.stem in registered:
            continue
        if re.search(r"\bThreadPool\b", text):
            errors.append(
                f"{path.relative_to(root)}:1: [concurrency-tests] uses "
                "ThreadPool but is not in SEESAW_CONCURRENCY_TESTS "
                "(CMakeLists.txt) — the TSan CI leg will never run it"
            )
        elif _CONCURRENCY_HEADERS.search(text):
            errors.append(
                f"{path.relative_to(root)}:1: [concurrency-tests] includes a "
                "serving/session header (its objects run pool threads "
                "internally) but is not in SEESAW_CONCURRENCY_TESTS "
                "(CMakeLists.txt) — the TSan CI leg will never run it"
            )
    return errors


# ------------------------------------------------------------- fault-coverage
# A class declared in src/net that talks to a peer — a VectorStore there is
# remote-backed, and any class owning a Transport or an RpcChannel is an RPC
# client — can fail in ways no in-process code can (dead peer, per-request
# deadline, RETRY_LATER shed, exhausted retries). Each such class must have
# a deterministic fault-injection suite — a tests/*.cc that includes the
# class's header AND the scripted-transport harness (tests/fault_socket.h)
# and is registered in SEESAW_CONCURRENCY_TESTS (so the TSan leg runs its
# cancellation/retry paths too). Coverage in an unregistered test does not
# count: TSan would never see it.
_REMOTE_STORE_DECL = re.compile(
    r"\bclass\s+(\w+)\s*(?:final\s*)?:\s*public\s+(?:store::)?VectorStore\b"
)
# A data member holding a connection: `std::unique_ptr<Transport> t_;` or
# `RpcChannel channel_ SEESAW_GUARDED_BY(mu_);` (parameters end in , or ).
_CHANNEL_MEMBER = re.compile(
    r"(?:\bstd::unique_ptr<\s*(?:net::)?Transport\s*>|\b(?:net::)?RpcChannel)"
    r"\s+\w+\s*(?:SEESAW_GUARDED_BY\([^)]*\)\s*)?[;{=]"
)
_FAULT_HARNESS_INCLUDE = re.compile(r'#\s*include\s*"tests/fault_socket\.h"')


def check_fault_coverage(root: Path) -> list[str]:
    net = root / "src" / "net"
    if not net.is_dir():
        return []
    registered: set[str] = set()
    cmake = root / "CMakeLists.txt"
    if cmake.is_file():
        m = _CMAKE_LIST.search(cmake.read_text())
        if m is not None:
            registered = set(m.group(1).split())
    tests = []
    tests_dir = root / "tests"
    if tests_dir.is_dir():
        for t in sorted(tests_dir.glob("*.cc")):
            tests.append((t.stem, _strip_comments(t.read_text())))
    errors = []
    for path in sorted(net.glob("*.h")):
        text = _strip_comments(path.read_text())
        peers = {
            m.group(1): m.start() for m in _REMOTE_STORE_DECL.finditer(text)
        }
        for name, start, members in _type_bodies(text):
            if _CHANNEL_MEMBER.search(members):
                peers.setdefault(name, start)
        for name, start in sorted(peers.items(), key=lambda kv: kv[1]):
            header = re.compile(
                r'#\s*include\s*"net/' + re.escape(path.name) + '"'
            )
            covered = any(
                stem in registered
                and header.search(body)
                and _FAULT_HARNESS_INCLUDE.search(body)
                for stem, body in tests
            )
            if covered:
                continue
            line = text[:start].count("\n") + 1
            errors.append(
                f"{path.relative_to(root)}:{line}: [fault-coverage] "
                f"'{name}' talks to a peer (a VectorStore, or owns a "
                "Transport/RpcChannel) with no "
                "fault-injection suite — add a tests/*.cc that includes "
                f'"net/{path.name}" and "tests/fault_socket.h" and register '
                "it in SEESAW_CONCURRENCY_TESTS, so dead-peer/deadline/retry "
                "semantics stay tested"
            )
    return errors


# -------------------------------------------------------------- atomic-layout
# A raw (unpadded) atomic member declaration: `std::atomic<T> name...;` not
# wrapped in CacheAligned<> (the wrapper puts `>>` right after the inner
# atomic, so `\s+` fails to match) and not alignas'd on the same line.
_ATOMIC_DECL = re.compile(
    r"^\s*(?:mutable\s+)?std::atomic<[^<>]*>\s+\w+", re.MULTILINE
)
_MUTEX_DECL = re.compile(r"^\s*(?:mutable\s+)?Mutex\s+\w+", re.MULTILINE)
_TYPE_OPEN = re.compile(r"\b(?:struct|class)\s+(\w+)[^;{()]*\{")
_LAYOUT_TOKEN = "layout-audited:"


def _type_bodies(text: str):
    """Yields (name, start_offset, body_text) for each struct/class body,
    including nested types (outer bodies contain inner ones)."""
    for m in _TYPE_OPEN.finditer(text):
        depth = 1
        i = m.end()
        while i < len(text) and depth > 0:
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
            i += 1
        if depth == 0:
            yield m.group(1), m.start(), text[m.end() : i - 1]


def check_atomic_layout(root: Path) -> list[str]:
    errors = []
    src = root / "src"
    if not src.is_dir():
        return errors
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        raw = path.read_text()
        for name, start, body in _type_bodies(raw):
            if _LAYOUT_TOKEN in body:
                continue  # documented exemption, audited by a human
            stripped = _strip_comments(body)
            raw_atomics = [
                m for m in _ATOMIC_DECL.finditer(stripped)
                if "alignas" not in
                stripped[stripped.rfind("\n", 0, m.start()) + 1 : m.end()]
            ]
            if not raw_atomics:
                continue
            has_mutex = _MUTEX_DECL.search(stripped) is not None
            if len(raw_atomics) < 2 and not has_mutex:
                continue
            line = raw[:start].count("\n") + 1
            hazard = (
                "mixes a Mutex with a raw std::atomic"
                if has_mutex
                else f"packs {len(raw_atomics)} raw std::atomic members"
            )
            errors.append(
                f"{path.relative_to(root)}:{line}: [atomic-layout] "
                f"'{name}' {hazard} — contended neighbors on one cache "
                "line false-share; pad with CacheAligned/alignas "
                "(common/aligned.h) or add a 'layout-audited:' comment in "
                "the type body documenting why packing is correct"
            )
    return errors


# ----------------------------------------------------------------- bench-json
# Latency benches must commit percentiles, not just means (PR 6's contract).
# Keyed by filename; other BENCH files need only parse and carry rows. Every
# row of a latency bench needs p50/p95/p99.
_PERCENTILE_FILES = {
    "BENCH_scale.json": ("p50_ms", "p95_ms", "p99_ms"),
    "BENCH_topk.json": ("p50_ms", "p95_ms", "p99_ms"),
    "BENCH_serving.json": ("p50_ms", "p95_ms", "p99_ms"),
}


def check_bench_json(root: Path) -> list[str]:
    errors = []
    for path in sorted(root.glob("BENCH_*.json")):
        rel = path.relative_to(root)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            errors.append(f"{rel}:1: [bench-json] does not parse: {e}")
            continue
        rows = doc.get("rows")
        if not isinstance(rows, list) or not rows:
            errors.append(f"{rel}:1: [bench-json] missing or empty 'rows'")
            continue
        suffixes = _PERCENTILE_FILES.get(path.name)
        if suffixes is None:
            continue
        for i, row in enumerate(rows):
            keys = set(row)
            for wanted in suffixes:
                if not any(k.endswith(wanted) for k in keys):
                    errors.append(
                        f"{rel}:1: [bench-json] rows[{i}] carries no "
                        f"*{wanted} key — latency baselines must commit "
                        "p50/p95/p99, not just means"
                    )
                    break
    return errors


RULES = [
    check_scan_control,
    check_single_scan_path,
    check_one_seen_walk,
    check_one_scatter,
    check_certified_scan,
    check_raw_threading,
    check_kernel_libm,
    check_net_sockets,
    check_concurrency_tests,
    check_fault_coverage,
    check_atomic_layout,
    check_bench_json,
]


def run_all(root: Path) -> list[str]:
    errors = []
    for rule in RULES:
        errors.extend(rule(root))
    return errors


# ------------------------------------------------------------------ self-test
def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def self_test() -> int:
    """Seeds one violation per rule and asserts each is caught."""
    failures = []

    def expect(name: str, errors: list[str], tag: str, want: bool) -> None:
        hit = any(tag in e for e in errors)
        if hit != want:
            failures.append(
                f"self-test '{name}': expected {tag} "
                f"{'violation' if want else 'clean'}, got: {errors or '[]'}"
            )

    with tempfile.TemporaryDirectory(prefix="seesaw-lint-selftest-") as td:
        root = Path(td)
        # A miniature clean tree: every rule must pass on it.
        _write(
            root / "src/store/good_store.h",
            "std::vector<std::vector<SearchResult>> TopKBatch(\n"
            "    std::span<const linalg::VecSpan> q, size_t k,\n"
            "    const SeenSet& seen, ThreadPool* pool,\n"
            "    const ScanControl& control) const override;\n"
            "// TopK(q, k, seen) const override; (comments never count)\n",
        )
        _write(root / "src/core/clean.cc", "int x = 0;  // std::mutex in comment\n")
        # The seen-run walk, the one scatter/merge and a per-query fan-out
        # live where the one-seen-walk / one-scatter rules allow them.
        _write(
            root / "src/store/seen_set.cc",
            "size_t n = other.words().size();\n",
        )
        _write(
            root / "src/store/vector_store.cc",
            "void S() { pool->ParallelFor(n, run); MergeTopK(m, k); }\n"
            "auto h = pool->SubmitWithResult(task, node);\n",
        )
        _write(
            root / "src/store/ivf_index.cc",
            "void Q() { pool->ParallelFor(num_queries, fn); }\n",
        )
        _write(
            root / "src/linalg/kernels_scalar.cc",
            "float f() { return std::fmaf(1.f, 2.f, 3.f); }\n",
        )
        # The int8 kernels dispatch where the certified-scan rule allows.
        _write(
            root / "src/store/exact_store.cc",
            "auto& k = linalg::ActiveInt8Kernels();\n",
        )
        _write(
            root / "src/linalg/simd_dispatch.cc",
            "const Int8KernelTable& ActiveInt8Kernels() { return t; }\n",
        )
        _write(
            root / "CMakeLists.txt",
            "set(SEESAW_CONCURRENCY_TESTS\n    pool_test\n    wire_test)\n",
        )
        _write(root / "tests/pool_test.cc", "ThreadPool pool(2);\n")
        # Registered serving suite + the one directory allowed raw sockets.
        # wire_test also covers the remote store below: it includes the
        # store's header and the fault harness, so fault-coverage passes.
        _write(
            root / "tests/wire_test.cc",
            '#include "net/client.h"\n'
            '#include "net/remote.h"\n'
            '#include "tests/fault_socket.h"\n'
            "int wire = 1;\n",
        )
        _write(
            root / "src/net/remote.h",
            "class MiniRemote : public VectorStore {\n"
            " public:\n"
            "  size_t size() const override;\n"
            "};\n",
        )
        # An RPC client owning a channel, covered by wire_test too.
        _write(
            root / "src/net/client.h",
            "class MiniClient {\n"
            " public:\n"
            "  explicit MiniClient(RpcChannel channel);\n"
            " private:\n"
            "  RpcChannel channel_;\n"
            "};\n",
        )
        _write(
            root / "src/net/socket.cc",
            "#include <sys/socket.h>\n"
            "int Open() { return ::socket(AF_INET, SOCK_STREAM, 0); }\n",
        )
        # Layout-clean types: padded atomics, a documented packed block, a
        # lone atomic, and a mutex-only type must all pass.
        _write(
            root / "src/net/clean_layout.h",
            "class PaddedHot {\n"
            "  CacheAligned<std::atomic<bool>> stop_;\n"
            "  CacheAligned<std::atomic<size_t>> queued_;\n"
            "};\n"
            "struct AuditedStats {\n"
            "  // layout-audited: cold monotone counters, packing is fine.\n"
            "  std::atomic<size_t> ok_{0};\n"
            "  std::atomic<size_t> shed_{0};\n"
            "};\n"
            "struct LoneFlag { std::atomic<bool> done{false}; };\n"
            "class Guarded {\n"
            "  mutable Mutex mu_;\n"
            "  size_t count_ = 0;\n"
            "};\n",
        )
        _write(
            root / "BENCH_scale.json",
            json.dumps(
                {"bench": "scale", "rows": [
                    {"p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0}]}
            ),
        )
        clean = run_all(root)
        if clean:
            failures.append(f"self-test clean tree not clean: {clean}")

        # scan-control: a remote backend (src/net, outside src/store) whose
        # override drops ScanControl.
        _write(
            root / "src/net/bad_remote.h",
            "std::vector<std::vector<SearchResult>> TopKBatch(\n"
            "    std::span<const linalg::VecSpan> q, size_t k,\n"
            "    const SeenSet& seen, ThreadPool* pool) const override;\n",
        )
        expect("scan-control", check_scan_control(root), "[scan-control]", True)

        # single-scan-path: a tool-local decorator overriding TopK.
        _write(
            root / "tools/bad_decorator.cc",
            "std::vector<SearchResult> TopK(linalg::VecSpan q, size_t k,\n"
            "    const SeenSet& seen, const ScanControl& control)\n"
            "    const override { return {}; }\n",
        )
        single_errors = check_single_scan_path(root)
        expect("single-scan-path", single_errors, "[single-scan-path]", True)
        if sum("[single-scan-path]" in e for e in single_errors) != 1:
            failures.append(
                f"self-test 'single-scan-path': expected exactly the 1 seeded "
                f"violation (TopKBatch overrides must stay clean), got: "
                f"{single_errors}"
            )

        # one-seen-walk: a store decoding seen bits itself (the comment
        # mention must not count).
        _write(
            root / "src/store/rogue_scan.cc",
            "// seen.words() in a comment\n"
            "uint64_t w = seen.words()[0];\n",
        )
        walk_errors = check_one_seen_walk(root)
        if sum("[one-seen-walk]" in e for e in walk_errors) != 1:
            failures.append(
                f"self-test 'one-seen-walk': expected exactly the 1 seeded "
                f"violation (seen_set.cc must stay clean), got: {walk_errors}"
            )

        # one-scatter: a store with its own fan-out (its MergeTopK mention
        # is a comment and must not count).
        _write(
            root / "src/store/rogue_sharded.cc",
            "// merged by MergeTopK(...)\n"
            "void F() { pool->ParallelFor(num_shards, scan); }\n",
        )
        scatter_errors = check_one_scatter(root)
        if sum("[one-scatter]" in e for e in scatter_errors) != 1:
            failures.append(
                f"self-test 'one-scatter': expected exactly the 1 seeded "
                f"violation (vector_store.cc and the per-query fan-outs must "
                f"stay clean), got: {scatter_errors}"
            )
        # ...and a second fan-out through per-part handles (its comment
        # mention must not count).
        _write(
            root / "src/store/rogue_fanout.cc",
            "// pool->SubmitWithResult(part) in a comment\n"
            "handles.push_back(pool->SubmitWithResult(part));\n",
        )
        scatter_errors = check_one_scatter(root)
        if (
            len(scatter_errors) != 2
            or sum("rogue_fanout.cc" in e for e in scatter_errors) != 1
        ):
            failures.append(
                f"self-test 'one-scatter': expected the seeded "
                f"SubmitWithResult fan-out flagged exactly once beside "
                f"rogue_sharded.cc, got: {scatter_errors}"
            )

        # certified-scan: an approximate int8 scan in another store, and a
        # test still naming the precision choice (comment mentions of
        # either must not count).
        _write(
            root / "src/store/rogue_int8.cc",
            "// ActiveInt8Kernels() in a comment\n"
            "auto& k = linalg::ActiveInt8Kernels();\n",
        )
        _write(
            root / "tests/rogue_precision_test.cc",
            "// ScanPrecision in a comment\n"
            "auto p = store::ScanPrecision::kInt8;\n",
        )
        certified_errors = check_certified_scan(root)
        for seeded in ("rogue_int8.cc", "rogue_precision_test.cc"):
            hits = [e for e in certified_errors
                    if "[certified-scan]" in e and seeded in e]
            if len(hits) != 1:
                failures.append(
                    f"self-test 'certified-scan': expected exactly 1 "
                    f"violation in {seeded} (exact_store.cc and linalg/ "
                    f"must stay clean), got: {certified_errors}"
                )
        if len(certified_errors) != 2:
            failures.append(
                f"self-test 'certified-scan': expected exactly the 2 seeded "
                f"violations, got: {certified_errors}"
            )

        # raw-threading: a std::mutex outside common/.
        _write(root / "src/core/bad_mutex.cc", "static std::mutex mu;\n")
        expect("raw-threading", check_raw_threading(root), "[raw-threading]", True)

        # kernel-libm: a std::sqrt in a kernel file.
        _write(
            root / "src/linalg/kernels_avx2.cc",
            "float n(float x) { return std::sqrt(x); }\n",
        )
        expect("kernel-libm", check_kernel_libm(root), "[kernel-libm]", True)

        # net-sockets: a bench reaching for the syscalls directly, and a
        # tool including a socket header.
        _write(
            root / "bench/bad_bench.cc",
            "int n = ::send(3, \"x\", 1, 0);\n",
        )
        _write(root / "tools/bad_tool.cc", "#include <netinet/tcp.h>\n")
        net_errors = check_net_sockets(root)
        expect("net-sockets", net_errors, "[net-sockets]", True)
        if sum("[net-sockets]" in e for e in net_errors) != 2:
            failures.append(
                f"self-test 'net-sockets': expected exactly the 2 seeded "
                f"violations (src/net must stay exempt), got: {net_errors}"
            )

        # concurrency-tests: a ThreadPool test not registered in CMake, and
        # an unregistered test that includes a serving header.
        _write(root / "tests/rogue_test.cc", "ThreadPool pool(2);\n")
        _write(
            root / "tests/rogue_server_test.cc",
            '#include "net/server.h"\nint s = 1;\n',
        )
        conc_errors = check_concurrency_tests(root)
        expect("concurrency-tests", conc_errors, "[concurrency-tests]", True)
        if sum("[concurrency-tests]" in e for e in conc_errors) != 2:
            failures.append(
                f"self-test 'concurrency-tests': expected 2 violations "
                f"(ThreadPool use and serving-header include), got: "
                f"{conc_errors}"
            )

        # fault-coverage: a remote-backed store whose only "coverage" is an
        # unregistered test — header + harness includes alone must not count.
        _write(
            root / "src/net/rogue_remote.h",
            "class RogueRemote : public VectorStore {};\n",
        )
        _write(
            root / "tests/rogue_remote_test.cc",
            '#include "net/rogue_remote.h"\n'
            '#include "tests/fault_socket.h"\n'
            "int rr = 1;\n",
        )
        fault_errors = check_fault_coverage(root)
        expect("fault-coverage", fault_errors, "[fault-coverage]", True)
        if sum("[fault-coverage]" in e for e in fault_errors) != 1:
            failures.append(
                f"self-test 'fault-coverage': expected exactly the 1 seeded "
                f"violation (the covered MiniRemote must stay clean), got: "
                f"{fault_errors}"
            )
        # ...and a class owning a Transport, with no suite at all.
        _write(
            root / "src/net/rogue_client.h",
            "class RogueClient {\n"
            "  std::unique_ptr<net::Transport> transport_;\n"
            "};\n",
        )
        fault_errors = check_fault_coverage(root)
        if (
            sum("[fault-coverage]" in e for e in fault_errors) != 2
            or sum("'RogueClient'" in e for e in fault_errors) != 1
        ):
            failures.append(
                f"self-test 'fault-coverage': expected RogueClient flagged "
                f"exactly once beside RogueRemote (the covered MiniClient "
                f"must stay clean), got: {fault_errors}"
            )

        # atomic-layout: adjacent raw atomics without padding or exemption,
        # and a Mutex packed next to a raw atomic.
        _write(
            root / "src/core/bad_layout.h",
            "struct HotCounters {\n"
            "  std::atomic<size_t> queued_{0};\n"
            "  std::atomic<size_t> inflight_{0};\n"
            "};\n"
            "class MixedGuard {\n"
            "  mutable Mutex mu_;\n"
            "  std::atomic<bool> dead_{false};\n"
            "};\n",
        )
        layout_errors = check_atomic_layout(root)
        expect("atomic-layout", layout_errors, "[atomic-layout]", True)
        if sum("[atomic-layout]" in e for e in layout_errors) != 2:
            failures.append(
                f"self-test 'atomic-layout': expected exactly the 2 seeded "
                f"violations (padded/audited/lone/mutex-only types must stay "
                f"clean), got: {layout_errors}"
            )

        # bench-json: a latency baseline without percentiles, junk JSON, and
        # a serving baseline that only committed means.
        _write(
            root / "BENCH_topk.json",
            json.dumps({"bench": "topk_latency", "rows": [{"mean_ms": 1.0}]}),
        )
        _write(root / "BENCH_broken.json", "{not json")
        _write(
            root / "BENCH_serving.json",
            json.dumps({"bench": "serving", "rows": [{"mean_ms": 2.0}]}),
        )
        bench_errors = check_bench_json(root)
        expect("bench-json", bench_errors, "[bench-json]", True)
        if not any("BENCH_serving.json" in e for e in bench_errors):
            failures.append(
                "self-test 'bench-json': BENCH_serving.json without "
                f"percentiles not caught: {bench_errors}"
            )

    if failures:
        for f in failures:
            print(f, file=sys.stderr)
        print("self-test FAILED", file=sys.stderr)
        return 1
    print("self-test OK: every rule catches its seeded violation")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=REPO_ROOT,
        help="repo root to lint (default: this script's repo)",
    )
    parser.add_argument(
        "--self-test", action="store_true",
        help="seed violations into a scratch tree and assert they are caught",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    errors = run_all(args.root)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_invariants: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print("check_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
