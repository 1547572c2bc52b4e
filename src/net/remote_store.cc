#include "net/remote_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/stopwatch.h"

namespace seesaw::store {

namespace {

/// The Status a store-frame wire error surfaces as (same table as the
/// session client's, minus the session-only codes).
Status StatusForWire(net::WireError code, const std::string& message) {
  std::string text = std::string(net::WireErrorName(code)) + ": " + message;
  switch (code) {
    case net::WireError::kRetryLater:
    case net::WireError::kQuotaExceeded:
      return Status::ResourceExhausted(std::move(text));
    case net::WireError::kNotFound:
      return Status::NotFound(std::move(text));
    case net::WireError::kInvalidArgument:
    case net::WireError::kMalformedFrame:
      return Status::InvalidArgument(std::move(text));
    case net::WireError::kUnsupportedVersion:
      return Status::FailedPrecondition(std::move(text));
    case net::WireError::kUnknownType:
      return Status::Unimplemented(std::move(text));
    case net::WireError::kShuttingDown:
      return Status::IoError(std::move(text));
    default:
      return Status::Internal(std::move(text));
  }
}

}  // namespace

double BackoffDelaySeconds(const RemoteStoreOptions& options, size_t attempt,
                           Rng& rng) {
  // exp2 of a small attempt count cannot overflow before min() caps it:
  // clamp the exponent anyway so a pathological attempt number stays finite.
  double factor = std::exp2(static_cast<double>(std::min<size_t>(attempt, 60)));
  double base =
      std::min(options.backoff_initial_seconds * factor,
               options.backoff_max_seconds);
  return base * rng.Uniform(0.5, 1.0);
}

RemoteStore::RemoteStore(std::unique_ptr<net::Transport> transport,
                         RemoteStoreOptions options, uint64_t size,
                         uint32_t dim)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed),
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
      store->RoundTrip(net::FrameType::kStoreInfo, "", nullptr));
  net::StoreInfoReply info;
  if (!net::DecodeStoreInfoReply(payload, &info)) {
    return Status::IoError("StoreInfo reply malformed");
  }
  store->size_ = info.size;
  store->dim_ = info.dim;
  return store;
}

StatusOr<std::string> RemoteStore::TryOnce(
    net::FrameType type, std::string_view payload, uint64_t request_id,
    const CancellationToken* cancel) const {
  SEESAW_RETURN_IF_ERROR(
      transport_->Send(net::EncodeFrame(type, request_id, payload)));
  Stopwatch clock;
  net::FrameHeader header;
  std::string reply;
  for (;;) {
    double left = options_.request_deadline_seconds;
    if (left > 0) {
      left -= clock.ElapsedSeconds();
      if (left <= 0) {
        return Status::DeadlineExceeded("request deadline exceeded");
      }
    }
    SEESAW_RETURN_IF_ERROR(transport_->ReadFrame(
        &header, &reply, options_.max_reply_payload_bytes, left, cancel));
    if (header.request_id == request_id) break;
    // Ids on this connection only grow, so a smaller id is a stale
    // duplicate of an already-consumed reply (a faulty peer repeating
    // itself): skip it. A larger id cannot be legitimate — abandon the
    // stream.
    if (header.request_id > request_id) {
      return Status::IoError("reply carries a foreign request id");
    }
  }
  if (header.type == net::FrameType::kError) {
    net::ErrorReply error;
    if (!net::DecodeErrorReply(reply, &error)) {
      return Status::IoError("error reply payload malformed");
    }
    return StatusForWire(error.code, error.message);
  }
  const auto expected = static_cast<net::FrameType>(
      static_cast<uint16_t>(type) | net::kReplyBit);
  if (header.type != expected) {
    return Status::IoError("reply type does not match the request");
  }
  return reply;
}

StatusOr<std::string> RemoteStore::RoundTrip(
    net::FrameType type, std::string payload,
    const CancellationToken* cancel) const {
  Status last;
  for (size_t attempt = 0;; ++attempt) {
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("scan cancelled");
    }
    // A fresh id per attempt keeps the monotone-id invariant that the
    // stale-duplicate skip in TryOnce leans on.
    StatusOr<std::string> reply =
        TryOnce(type, payload, next_request_id_++, cancel);
    if (reply.ok()) return reply;
    last = reply.status();
    // Retriable failures: graceful shedding (RETRY_LATER ->
    // ResourceExhausted) waits and resends; transport failures reconnect
    // first. Everything else — deadline expiry, typed server errors,
    // cancellation — is final.
    bool shed = last.code() == StatusCode::kResourceExhausted;
    bool io = last.code() == StatusCode::kIoError;
    if ((!shed && !io) || attempt >= options_.max_retries) {
      if (shed || io) {
        return Status(last.code(),
                      "retries exhausted: " + last.message());
      }
      return last;
    }
    double delay = BackoffDelaySeconds(options_, attempt, backoff_rng_);
    if (options_.sleep) {
      options_.sleep(delay);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    if (io) {
      Status rc = transport_->Reconnect();
      if (!rc.ok()) last = rc;  // next Send fails too; loop counts it down
    }
  }
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
  req.k = static_cast<uint32_t>(k);
  req.seen = seen;

  MutexLock lock(mu_);
  StatusOr<std::string> payload = RoundTrip(
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
  if (!net::DecodeStoreTopKBatchReply(*payload, &reply) ||
      reply.results.size() != queries.size()) {
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
  StatusOr<std::string> payload = RoundTrip(
      net::FrameType::kStoreGetVector, net::EncodeStoreGetVectorRequest(req),
      nullptr);
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
