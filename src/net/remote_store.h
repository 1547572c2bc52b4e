// store::RemoteStore: a VectorStore whose scans run on a peer machine.
//
// The sharded-scan stack (ShardedStore + SeenSet::Slice + canonical-order
// merge) never cared where a child's rows live; RemoteStore completes that
// picture by speaking the store frames of net/wire.h to a SeeSawServer in
// store mode, so a ShardedStore built over RemoteStore children fans one
// logical scan out across machines. Results cross the wire with float bits
// intact in the canonical (score desc, id asc) order, which keeps the
// remote-vs-local bitwise parity contract: a ShardedStore over RemoteStore
// children returns exactly what the same ShardedStore over local children
// would.
//
// Production semantics, in order of precedence on each RPC:
//   - cancellation: ScanControl's token is polled inside the socket wait
//     (~50ms slices), so a cancelled speculation abandons an in-flight
//     reply instead of hanging on a dead peer. Cancelled scans return
//     empty results and report nothing — the caller discards them anyway.
//   - deadline: each RPC attempt gets options.request_deadline_seconds;
//     expiry is a typed DeadlineExceeded.
//   - retries: RETRY_LATER replies (graceful shedding) are retried up to
//     options.max_retries times with exponentially growing, jittered,
//     capped backoff (BackoffDelaySeconds). IO failures reconnect before
//     the next attempt. Deterministic per options.backoff_seed.
//   - typed degradation: once attempts are exhausted (or a non-retriable
//     error arrives) the scan reports its Status to ScanControl::errors
//     and returns empty results; a ShardedStore merge then carries a
//     non-ok collector instead of a silent partial. A dead shard can
//     never hang a scan and never silently thins the result set.
//
// Lives in src/net (it owns a connection; the CMake DAG has net above
// store) but in namespace seesaw::store, where its interface belongs.
#ifndef SEESAW_NET_REMOTE_STORE_H_
#define SEESAW_NET_REMOTE_STORE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "linalg/vector_ops.h"
#include "net/transport.h"
#include "net/wire.h"
#include "store/seen_set.h"
#include "store/vector_store.h"

namespace seesaw::store {

struct RemoteStoreOptions {
  /// Wall-clock budget for one RPC attempt (send + full reply). <= 0
  /// disables the deadline (tests only; production always wants one).
  double request_deadline_seconds = 5.0;
  /// RETRY_LATER / IO-failure retries after the first attempt.
  size_t max_retries = 3;
  /// Backoff before retry attempt a sleeps min(initial * 2^a, max) scaled
  /// by a jitter factor uniform in [0.5, 1.0) — exponential, capped,
  /// deterministic per backoff_seed.
  double backoff_initial_seconds = 0.01;
  double backoff_max_seconds = 0.25;
  uint64_t backoff_seed = 0x5ee5a301;
  /// Largest reply payload accepted (a corrupt length prefix must not
  /// drive a multi-gigabyte allocation).
  size_t max_reply_payload_bytes = 64u << 20;
  /// Sleep hook for backoff waits. Null = real sleep; tests inject a
  /// virtual-clock recorder so retry schedules are asserted without
  /// wall-clock time.
  std::function<void(double seconds)> sleep;
};

/// The backoff schedule, exposed pure so tests assert monotonicity and the
/// jitter envelope directly: min(initial * 2^attempt, max) * U[0.5, 1.0).
/// `attempt` counts from 0 (the wait before the first retry).
double BackoffDelaySeconds(const RemoteStoreOptions& options, size_t attempt,
                           Rng& rng);

class RemoteStore : public VectorStore {
 public:
  /// Production constructor: TCP to a SeeSawServer in store mode.
  static StatusOr<std::unique_ptr<RemoteStore>> Connect(
      const std::string& host, uint16_t port, RemoteStoreOptions options);

  /// Seam constructor: any Transport (the fault harness injects scripted
  /// ones). Issues one kStoreInfo RPC to learn the peer's size/dim — after
  /// that, size() and dim() are local.
  static StatusOr<std::unique_ptr<RemoteStore>> Create(
      std::unique_ptr<net::Transport> transport, RemoteStoreOptions options);

  size_t size() const override { return size_; }
  size_t dim() const override { return dim_; }

  /// One kStoreTopKBatch RPC — the whole batch crosses the wire in a
  /// single frame (the peer parallelizes on its own pool), so `pool` is
  /// unused here. On failure reports to control.errors (when set) and
  /// returns {}; on cancellation returns {} without reporting. The empty
  /// outer vector (size mismatch with the query count) is skipped by
  /// ShardedStore's merge exactly like a cancelled shard, and the base
  /// TopK turns it into an empty result list.
  std::vector<std::vector<SearchResult>> TopKBatch(
      std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
      ThreadPool* pool, const ScanControl& control) const override;

  /// One kStoreGetVector RPC, cached: vectors are fetched once and pinned
  /// (stores are immutable, the cache never evicts), so the returned span
  /// stays valid for the store's lifetime like every other backend's.
  /// Failure returns an empty span; see last_status().
  linalg::VecSpan GetVector(uint32_t id) const override;

  /// The most recent RPC failure (OK after any success). GetVector has no
  /// error channel of its own; callers that must distinguish "empty span:
  /// failed" consult this.
  Status last_status() const;

 private:
  RemoteStore(std::unique_ptr<net::Transport> transport,
              RemoteStoreOptions options, uint64_t size, uint32_t dim);

  /// Sends `payload` as `type` and blocks for the matching reply payload,
  /// applying the full semantics stack (deadline, retries with backoff and
  /// reconnect, stale-duplicate skip, cancellation). Cancellation surfaces
  /// as Status::Cancelled.
  StatusOr<std::string> RoundTrip(net::FrameType type, std::string payload,
                                  const CancellationToken* cancel) const
      SEESAW_REQUIRES(mu_);

  /// One attempt of RoundTrip (no retry loop).
  StatusOr<std::string> TryOnce(net::FrameType type,
                                std::string_view payload, uint64_t request_id,
                                const CancellationToken* cancel) const
      SEESAW_REQUIRES(mu_);

  mutable Mutex mu_;
  std::unique_ptr<net::Transport> transport_ SEESAW_GUARDED_BY(mu_);
  const RemoteStoreOptions options_;
  mutable uint64_t next_request_id_ SEESAW_GUARDED_BY(mu_) = 1;
  mutable Rng backoff_rng_ SEESAW_GUARDED_BY(mu_);
  mutable Status last_status_ SEESAW_GUARDED_BY(mu_);

  /// GetVector cache: deque so grown entries never move (spans stay valid).
  mutable std::deque<linalg::VectorF> pinned_ SEESAW_GUARDED_BY(mu_);
  mutable std::vector<const linalg::VectorF*> by_id_ SEESAW_GUARDED_BY(mu_);

  uint64_t size_;
  uint32_t dim_;
};

}  // namespace seesaw::store

#endif  // SEESAW_NET_REMOTE_STORE_H_
