// StoreFrameService: the shard-serving request handler, socket-free.
//
// Maps one decoded store frame (kStoreInfo / kStoreTopKBatch /
// kStoreGetVector) to the bytes of its complete reply frame — the matching
// reply type on success, a typed kError frame otherwise. SeeSawServer's
// store mode routes frames here from its handler pool; the fault-injection
// harness (tests/fault_socket.h) calls it directly with no socket in sight,
// which is what makes every failure-semantics test deterministic.
//
// The service only reads the store (stores are immutable after Create and
// safe for concurrent scans), so HandleFrame is const and safe from any
// number of handler threads at once.
#ifndef SEESAW_NET_STORE_SERVICE_H_
#define SEESAW_NET_STORE_SERVICE_H_

#include <string>
#include <string_view>

#include "common/thread_pool.h"
#include "net/wire.h"
#include "store/vector_store.h"

namespace seesaw::net {

class StoreFrameService {
 public:
  /// `store` must outlive the service. `pool` (nullable) parallelizes
  /// TopKBatch scans; it must be the nesting-safe shared pool when handlers
  /// themselves run on it.
  StoreFrameService(const store::VectorStore& store, ThreadPool* pool)
      : store_(store), pool_(pool) {}

  /// True for the request frame types this service answers.
  static bool IsStoreFrame(FrameType type);

  /// Answers one store request frame: returns the encoded reply frame
  /// (header + payload), echoing header.request_id. Malformed payloads get
  /// kMalformedFrame, dimension mismatches kInvalidArgument, out-of-range
  /// GetVector ids kNotFound, non-store frame types kUnknownType. A lookup's
  /// k is clamped to the store size before the scan.
  std::string HandleFrame(const FrameHeader& header,
                          std::string_view payload) const;

 private:
  const store::VectorStore& store_;
  ThreadPool* pool_;
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_STORE_SERVICE_H_
