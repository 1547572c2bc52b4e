// remote_parity_gate: the client half of scripts/run_remote_smoke.sh.
//
// Connects RemoteStore children to N seesaw_server processes running in
// shard-serving mode (--serve_store), assembles them into a ShardedStore,
// rebuilds the same DeterministicTable locally from the same (rows, dim,
// seed) flags, and gates BITWISE parity of the distributed scan against a
// single local ExactStore: TopK over several queries and seen-set
// fractions, one TopKBatch, and GetVector spot checks. Prints "PARITY OK"
// and exits 0 when every bit matches; prints the first mismatch and exits
// 1 otherwise — CI treats any non-zero exit as a gate failure.
//
// Usage:
//   remote_parity_gate --ports=P0,P1,... [--host=127.0.0.1]
//                      [--store_rows=2000] [--dim=32] [--store_seed=7]
//                      [--queries=4] [--k=10]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "net/remote_store.h"
#include "store/exact_store.h"
#include "store/seen_set.h"
#include "store/sharded_store.h"
#include "tools/shard_table.h"

namespace {

struct Flags {
  std::vector<uint16_t> ports;
  std::string host = "127.0.0.1";
  size_t store_rows = 2000;
  size_t dim = 32;
  uint64_t store_seed = 7;
  size_t queries = 4;
  size_t k = 10;
};

bool ParseOne(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseOne(argv[i], "--ports", &v)) {
      size_t pos = 0;
      while (pos < v.size()) {
        size_t comma = v.find(',', pos);
        if (comma == std::string::npos) comma = v.size();
        f.ports.push_back(
            static_cast<uint16_t>(std::atoi(v.substr(pos, comma - pos).c_str())));
        pos = comma + 1;
      }
    } else if (ParseOne(argv[i], "--host", &v)) {
      f.host = v;
    } else if (ParseOne(argv[i], "--store_rows", &v)) {
      f.store_rows = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--dim", &v)) {
      f.dim = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--store_seed", &v)) {
      f.store_seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (ParseOne(argv[i], "--queries", &v)) {
      f.queries = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--k", &v)) {
      f.k = static_cast<size_t>(std::atoi(v.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (f.ports.empty()) {
    std::fprintf(stderr, "remote_parity_gate: --ports is required\n");
    std::exit(2);
  }
  return f;
}

/// Bitwise comparison; prints the first divergence.
bool SameResults(const std::vector<seesaw::store::SearchResult>& got,
                 const std::vector<seesaw::store::SearchResult>& want,
                 const char* what) {
  if (got.size() != want.size()) {
    std::fprintf(stderr, "MISMATCH %s: %zu results remote vs %zu local\n",
                 what, got.size(), want.size());
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].id != want[i].id || got[i].score != want[i].score) {
      std::fprintf(stderr,
                   "MISMATCH %s rank %zu: remote (id=%u score=%.9g) vs local "
                   "(id=%u score=%.9g)\n",
                   what, i, got[i].id, static_cast<double>(got[i].score),
                   want[i].id, static_cast<double>(want[i].score));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace seesaw;

  Flags flags = ParseFlags(argc, argv);

  // The same table the shard servers partitioned, and the local reference.
  linalg::MatrixF table =
      tools::DeterministicTable(flags.store_rows, flags.dim, flags.store_seed);
  auto reference = store::ExactStore::Create(table);
  SEESAW_CHECK(reference.ok()) << reference.status().ToString();

  std::vector<std::unique_ptr<store::VectorStore>> children;
  for (uint16_t port : flags.ports) {
    auto remote = store::RemoteStore::Connect(flags.host, port, {});
    SEESAW_CHECK(remote.ok())
        << "connect to shard on port " << port << ": "
        << remote.status().ToString();
    children.push_back(std::move(*remote));
  }
  auto sharded = store::ShardedStore::CreateFromChildren(std::move(children));
  SEESAW_CHECK(sharded.ok()) << sharded.status().ToString();
  if (sharded->size() != flags.store_rows || sharded->dim() != flags.dim) {
    std::fprintf(stderr,
                 "MISMATCH shape: remote %zux%zu vs expected %zux%zu — were "
                 "the servers started with the same flags?\n",
                 sharded->size(), sharded->dim(), flags.store_rows, flags.dim);
    return 1;
  }

  // Deterministic query set and seen sets (independent of the table seed).
  Rng rng(flags.store_seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<linalg::VectorF> queries;
  for (size_t i = 0; i < flags.queries; ++i) {
    linalg::VectorF q(flags.dim);
    for (float& x : q) x = static_cast<float>(rng.Gaussian());
    linalg::NormalizeInPlace(linalg::MutVecSpan(q.data(), q.size()));
    queries.push_back(std::move(q));
  }

  store::ScanErrorCollector errors;
  store::ScanControl control;
  control.errors = &errors;
  for (double fraction : {0.0, 0.3}) {
    store::SeenSet seen(flags.store_rows);
    for (size_t id = 0; id < flags.store_rows; ++id) {
      if (rng.Uniform() < fraction) seen.Set(static_cast<uint32_t>(id));
    }
    for (size_t q = 0; q < queries.size(); ++q) {
      auto got = sharded->TopK(queries[q], flags.k, seen, control);
      auto want = reference->TopK(queries[q], flags.k, seen);
      char what[64];
      std::snprintf(what, sizeof(what), "TopK q=%zu seen=%.1f", q, fraction);
      if (!SameResults(got, want, what)) return 1;
    }
    std::vector<linalg::VecSpan> spans(queries.begin(), queries.end());
    auto got_batch =
        sharded->TopKBatch(spans, flags.k, seen, /*pool=*/nullptr, control);
    auto want_batch = reference->TopKBatch(spans, flags.k, seen);
    if (got_batch.size() != want_batch.size()) {
      std::fprintf(stderr, "MISMATCH TopKBatch: %zu vs %zu lists\n",
                   got_batch.size(), want_batch.size());
      return 1;
    }
    for (size_t q = 0; q < want_batch.size(); ++q) {
      char what[64];
      std::snprintf(what, sizeof(what), "TopKBatch q=%zu seen=%.1f", q,
                    fraction);
      if (!SameResults(got_batch[q], want_batch[q], what)) return 1;
    }
  }
  if (!errors.ok()) {
    std::fprintf(stderr, "MISMATCH: scan reported %s\n",
                 errors.first().ToString().c_str());
    return 1;
  }

  // GetVector crosses shard boundaries with fp32 bits intact.
  for (uint32_t id :
       {uint32_t{0}, static_cast<uint32_t>(flags.store_rows / 2),
        static_cast<uint32_t>(flags.store_rows - 1)}) {
    auto got = sharded->GetVector(id);
    auto want = table.Row(id);
    if (got.size() != want.size()) {
      std::fprintf(stderr, "MISMATCH GetVector(%u): dim %zu vs %zu\n", id,
                   got.size(), want.size());
      return 1;
    }
    for (size_t j = 0; j < want.size(); ++j) {
      if (got[j] != want[j]) {
        std::fprintf(stderr, "MISMATCH GetVector(%u)[%zu]\n", id, j);
        return 1;
      }
    }
  }

  std::printf("PARITY OK (%zu shards, %zu rows, dim %zu)\n",
              flags.ports.size(), flags.store_rows, flags.dim);
  return 0;
}
