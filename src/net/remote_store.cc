#include "net/remote_store.h"

#include <algorithm>
#include <string>
#include <utility>

namespace seesaw::store {

RemoteStore::RemoteStore(std::unique_ptr<net::Transport> transport,
                         RemoteStoreOptions options, uint64_t size,
                         uint32_t dim)
    : channel_(std::move(transport), std::move(options)),
      size_(size),
      dim_(dim) {}

StatusOr<std::unique_ptr<RemoteStore>> RemoteStore::Connect(
    const std::string& host, uint16_t port, RemoteStoreOptions options) {
  SEESAW_ASSIGN_OR_RETURN(std::unique_ptr<net::TcpTransport> transport,
                          net::TcpTransport::Connect(host, port));
  return Create(std::move(transport), std::move(options));
}

StatusOr<std::unique_ptr<RemoteStore>> RemoteStore::Create(
    std::unique_ptr<net::Transport> transport, RemoteStoreOptions options) {
  std::unique_ptr<RemoteStore> store(new RemoteStore(
      std::move(transport), std::move(options), /*size=*/0, /*dim=*/0));
  // Learn the peer's shape once; size()/dim() are local forever after (the
  // peer's store is immutable, like every backend's).
  MutexLock lock(store->mu_);
  SEESAW_ASSIGN_OR_RETURN(
      std::string payload,
      store->channel_.RoundTrip(net::FrameType::kStoreInfo, ""));
  net::StoreInfoReply info;
  if (!net::DecodeStoreInfoReply(payload, &info)) {
    return Status::IoError("StoreInfo reply malformed");
  }
  // Ids on the wire are u32, and GetVector sizes its cache by size(): a
  // peer claiming more rows than ids can name is misconfigured or hostile.
  if (info.size == 0 || info.size > UINT32_MAX || info.dim == 0) {
    return Status::IoError("StoreInfo reply malformed: size " +
                           std::to_string(info.size) + ", dim " +
                           std::to_string(info.dim));
  }
  store->size_ = info.size;
  store->dim_ = info.dim;
  return store;
}

std::vector<std::vector<SearchResult>> RemoteStore::TopKBatch(
    std::span<const linalg::VecSpan> queries, size_t k, const SeenSet& seen,
    ThreadPool* pool, const ScanControl& control) const {
  (void)pool;  // the peer parallelizes on its own pool
  if (control.ShouldStop()) return {};
  net::StoreTopKBatchRequest req;
  req.queries.reserve(queries.size());
  for (linalg::VecSpan q : queries) {
    req.queries.emplace_back(q.begin(), q.end());
  }
  // No scan returns more than size() hits, so clamping first keeps every
  // valid k's results and makes the narrowing to the u32 wire field exact.
  req.k = static_cast<uint32_t>(std::min<uint64_t>(k, size_));
  req.seen = seen;

  MutexLock lock(mu_);
  StatusOr<std::string> payload = channel_.RoundTrip(
      net::FrameType::kStoreTopKBatch, net::EncodeStoreTopKBatchRequest(req),
      control.cancel);
  if (!payload.ok()) {
    if (!payload.status().IsCancelled()) {
      last_status_ = payload.status();
      if (control.errors != nullptr) control.errors->Report(payload.status());
    }
    return {};
  }
  net::StoreTopKBatchReply reply;
  // Sessions index patches by hit id (after ShardedStore's offset), so
  // every hit must be a row of this peer, and no list may exceed k.
  auto well_formed = [&](const std::vector<SearchResult>& hits) {
    return hits.size() <= req.k &&
           std::all_of(hits.begin(), hits.end(),
                       [&](const SearchResult& hit) { return hit.id < size_; });
  };
  if (!net::DecodeStoreTopKBatchReply(*payload, &reply) ||
      reply.results.size() != queries.size() ||
      !std::all_of(reply.results.begin(), reply.results.end(), well_formed)) {
    Status bad = Status::IoError("StoreTopKBatch reply malformed");
    last_status_ = bad;
    if (control.errors != nullptr) control.errors->Report(std::move(bad));
    return {};
  }
  last_status_ = Status::OK();
  return std::move(reply.results);
}

linalg::VecSpan RemoteStore::GetVector(uint32_t id) const {
  MutexLock lock(mu_);
  if (by_id_.size() < size_) by_id_.resize(size_, nullptr);
  if (id >= size_) {
    last_status_ = Status::NotFound("vector id out of range");
    return {};
  }
  if (by_id_[id] != nullptr) return *by_id_[id];

  net::StoreGetVectorRequest req;
  req.id = id;
  StatusOr<std::string> payload = channel_.RoundTrip(
      net::FrameType::kStoreGetVector, net::EncodeStoreGetVectorRequest(req));
  if (!payload.ok()) {
    last_status_ = payload.status();
    return {};
  }
  net::StoreGetVectorReply reply;
  if (!net::DecodeStoreGetVectorReply(*payload, &reply) ||
      reply.vector.size() != dim_) {
    last_status_ = Status::IoError("StoreGetVector reply malformed");
    return {};
  }
  last_status_ = Status::OK();
  // The deque never relocates settled entries, so the span pinned here
  // stays valid for the store's lifetime (the cache never evicts).
  pinned_.push_back(std::move(reply.vector));
  by_id_[id] = &pinned_.back();
  return *by_id_[id];
}

Status RemoteStore::last_status() const {
  MutexLock lock(mu_);
  return last_status_;
}

}  // namespace seesaw::store
