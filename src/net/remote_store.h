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
// Every RPC goes through one net::RpcChannel (net/rpc_channel.h), which
// owns the deadline, RETRY_LATER backoff, reconnect and stale-reply rules;
// the store frames are idempotent, so an IO failure reconnects and resends.
// ScanControl's token cancels an in-flight wait. Once the channel gives up
// the scan reports its Status to ScanControl::errors and returns empty
// results, so a ShardedStore merge carries a non-ok collector instead of a
// silent partial: a dead shard can never hang a scan or thin its results.
//
// Lives in src/net (it owns a connection; the CMake DAG has net above
// store) but in namespace seesaw::store, where its interface belongs.
#ifndef SEESAW_NET_REMOTE_STORE_H_
#define SEESAW_NET_REMOTE_STORE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "linalg/vector_ops.h"
#include "net/rpc_channel.h"
#include "net/transport.h"
#include "store/seen_set.h"
#include "store/vector_store.h"

namespace seesaw::store {

/// RemoteStore's knobs are the channel's (deadline, retry budget, backoff).
using RemoteStoreOptions = net::RpcOptions;

class RemoteStore : public VectorStore {
 public:
  /// Production constructor: TCP to a SeeSawServer in store mode.
  static StatusOr<std::unique_ptr<RemoteStore>> Connect(
      const std::string& host, uint16_t port, RemoteStoreOptions options);

  /// Seam constructor: any Transport (the fault harness injects scripted
  /// ones). Issues one kStoreInfo RPC to learn the peer's size/dim — after
  /// that, size() and dim() are local. A peer reporting no rows, more rows
  /// than u32 ids can name, or dim 0 fails with IoError.
  static StatusOr<std::unique_ptr<RemoteStore>> Create(
      std::unique_ptr<net::Transport> transport, RemoteStoreOptions options);

  size_t size() const override { return size_; }
  size_t dim() const override { return dim_; }

  /// One kStoreTopKBatch RPC — the whole batch crosses the wire in a
  /// single frame (the peer parallelizes on its own pool), so `pool` is
  /// unused here. On failure reports to control.errors (when set) and
  /// returns {}; on cancellation returns {} without reporting. A reply
  /// with the wrong list count, a list longer than the requested k, or a
  /// hit id >= size() is malformed: an IoError, never a merged result. The
  /// empty outer vector (size mismatch with the query count) is skipped by
  /// ScatterTopK's merge exactly like a cancelled shard, and the base TopK
  /// turns it into an empty result list.
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

  mutable Mutex mu_;
  mutable net::RpcChannel channel_ SEESAW_GUARDED_BY(mu_);
  mutable Status last_status_ SEESAW_GUARDED_BY(mu_);

  /// GetVector cache: deque so grown entries never move (spans stay valid).
  mutable std::deque<linalg::VectorF> pinned_ SEESAW_GUARDED_BY(mu_);
  mutable std::vector<const linalg::VectorF*> by_id_ SEESAW_GUARDED_BY(mu_);

  uint64_t size_;
  uint32_t dim_;
};

}  // namespace seesaw::store

#endif  // SEESAW_NET_REMOTE_STORE_H_
