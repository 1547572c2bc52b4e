// seesaw_server: stand-alone serving binary. Generates a deterministic
// synthetic dataset (the same profile family the benches use, so any client
// built from this repo knows the concept names), preprocesses it into a
// SeeSawService, and serves the wire protocol (src/net/wire.h) on TCP.
//
// Prints exactly one "LISTENING <port>" line to stdout once the socket is
// bound (port 0 = ephemeral), which is how scripts/run_serving_smoke.sh and
// bench_serving --connect discover the port. Stops cleanly on SIGINT or
// SIGTERM.
//
// Shard-serving mode (--serve_store): additionally builds this shard's
// slice of a deterministic vector table — rows [first, first+count) per
// ShardedStore::PartitionRange(store_rows, num_shards, shard_index) over
// DeterministicTable(store_rows, dim, store_seed) — and answers the store
// frames (kStoreInfo/TopK/TopKBatch/GetVector), so N of these processes
// are the peers a ShardedStore over RemoteStore children fans out to.
// remote_parity_gate rebuilds the same table from the same flags and gates
// bitwise parity against a single local store.
//
// Usage:
//   seesaw_server [--port=0] [--bind=127.0.0.1] [--scale=0.05] [--dim=32]
//                 [--threads=0] [--max_sessions_per_user=0]
//                 [--idle_ttl_seconds=60] [--max_connections=4096]
//                 [--max_queued_requests=256] [--sweep_interval_seconds=1]
//                 [--serve_store] [--shard_index=0] [--num_shards=1]
//                 [--store_rows=2000] [--store_seed=7]
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "core/service.h"
#include "data/profiles.h"
#include "net/server.h"
#include "net/socket.h"
#include "store/exact_store.h"
#include "store/sharded_store.h"
#include "tools/shard_table.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

struct Flags {
  uint16_t port = 0;
  std::string bind = "127.0.0.1";
  double scale = 0.05;
  size_t dim = 32;
  size_t threads = 0;
  size_t max_sessions_per_user = 0;
  double idle_ttl_seconds = 60.0;
  size_t max_connections = 4096;
  size_t max_queued_requests = 256;
  double sweep_interval_seconds = 1.0;
  // Shard-serving mode.
  bool serve_store = false;
  size_t shard_index = 0;
  size_t num_shards = 1;
  size_t store_rows = 2000;
  uint64_t store_seed = 7;
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
    if (ParseOne(argv[i], "--port", &v)) {
      f.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--bind", &v)) {
      f.bind = v;
    } else if (ParseOne(argv[i], "--scale", &v)) {
      f.scale = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--dim", &v)) {
      f.dim = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--threads", &v)) {
      f.threads = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--max_sessions_per_user", &v)) {
      f.max_sessions_per_user = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--idle_ttl_seconds", &v)) {
      f.idle_ttl_seconds = std::atof(v.c_str());
    } else if (ParseOne(argv[i], "--max_connections", &v)) {
      f.max_connections = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--max_queued_requests", &v)) {
      f.max_queued_requests = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--sweep_interval_seconds", &v)) {
      f.sweep_interval_seconds = std::atof(v.c_str());
    } else if (std::strcmp(argv[i], "--serve_store") == 0) {
      f.serve_store = true;
    } else if (ParseOne(argv[i], "--shard_index", &v)) {
      f.shard_index = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--num_shards", &v)) {
      f.num_shards = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--store_rows", &v)) {
      f.store_rows = static_cast<size_t>(std::atoi(v.c_str()));
    } else if (ParseOne(argv[i], "--store_seed", &v)) {
      f.store_seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace seesaw;

  Flags flags = ParseFlags(argc, argv);
  net::RaiseFdLimit(8192);

  auto profile = data::BddLikeProfile(flags.scale);
  profile.embedding_dim = flags.dim;
  auto dataset = data::Dataset::Generate(profile);
  SEESAW_CHECK(dataset.ok()) << dataset.status().ToString();

  core::ServiceOptions options;
  options.preprocess.md.k = 5;
  options.session_threads = flags.threads;
  options.session_limits.max_sessions_per_user = flags.max_sessions_per_user;
  options.session_limits.idle_ttl_seconds = flags.idle_ttl_seconds;
  // One request at a time per session: the wire-level enforcement of the
  // searcher's single-threaded contract; concurrent hits shed RETRY_LATER.
  options.session_limits.max_inflight_per_session = 1;
  auto service = core::SeeSawService::Create(*dataset, options);
  SEESAW_CHECK(service.ok()) << service.status().ToString();

  net::ServerOptions server_options;
  server_options.bind_address = flags.bind;
  server_options.port = flags.port;
  server_options.max_connections = flags.max_connections;
  server_options.max_queued_requests = flags.max_queued_requests;
  server_options.sweep_interval_seconds = flags.sweep_interval_seconds;

  net::SeeSawServer server(service->sessions(), server_options);

  // Shard-serving mode: build this shard's slice of the deterministic table
  // and attach it before Start (the store must outlive the server).
  std::unique_ptr<store::ExactStore> shard_store;
  if (flags.serve_store) {
    SEESAW_CHECK(flags.shard_index < flags.num_shards)
        << "--shard_index must be < --num_shards";
    linalg::MatrixF table =
        tools::DeterministicTable(flags.store_rows, flags.dim, flags.store_seed);
    auto [first, count] = store::ShardedStore::PartitionRange(
        flags.store_rows, flags.num_shards, flags.shard_index);
    linalg::MatrixF part(count, flags.dim);
    for (size_t r = 0; r < count; ++r) {
      auto src = table.Row(first + r);
      std::copy(src.begin(), src.end(), part.MutableRow(r).begin());
    }
    auto made = store::ExactStore::Create(std::move(part));
    SEESAW_CHECK(made.ok()) << made.status().ToString();
    shard_store = std::make_unique<store::ExactStore>(std::move(*made));
    server.ServeStore(*shard_store);
    SEESAW_LOG(Info) << "store mode: shard " << flags.shard_index << "/"
                     << flags.num_shards << " rows [" << first << ", "
                     << first + count << ") of " << flags.store_rows;
  }

  Status started = server.Start();
  SEESAW_CHECK(started.ok()) << started.ToString();

  std::printf("LISTENING %u\n", server.port());
  std::fflush(stdout);
  SEESAW_LOG(Info) << "seesaw_server serving on " << flags.bind << ":"
                   << server.port() << " (dataset scale=" << flags.scale
                   << " dim=" << flags.dim << ")";

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  SEESAW_LOG(Info) << "seesaw_server stopping";
  server.Stop();
  return 0;
}
