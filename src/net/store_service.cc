#include "net/store_service.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "linalg/vector_ops.h"

namespace seesaw::net {

namespace {

std::string ErrorFrame(uint64_t request_id, WireError code,
                       std::string message) {
  ErrorReply reply;
  reply.code = code;
  reply.message = std::move(message);
  return EncodeFrame(FrameType::kError, request_id, EncodeErrorReply(reply));
}

}  // namespace

bool StoreFrameService::IsStoreFrame(FrameType type) {
  switch (type) {
    case FrameType::kStoreInfo:
    case FrameType::kStoreTopKBatch:
    case FrameType::kStoreGetVector:
      return true;
    default:
      return false;
  }
}

std::string StoreFrameService::HandleFrame(const FrameHeader& header,
                                           std::string_view payload) const {
  const uint64_t id = header.request_id;
  switch (header.type) {
    case FrameType::kStoreInfo: {
      if (!payload.empty()) {
        return ErrorFrame(id, WireError::kMalformedFrame,
                          "StoreInfo carries no payload");
      }
      StoreInfoReply reply;
      reply.size = store_.size();
      reply.dim = static_cast<uint32_t>(store_.dim());
      return EncodeFrame(FrameType::kStoreInfoReply, id,
                         EncodeStoreInfoReply(reply));
    }

    case FrameType::kStoreTopKBatch: {
      StoreTopKBatchRequest req;
      if (!DecodeStoreTopKBatchRequest(payload, &req)) {
        return ErrorFrame(id, WireError::kMalformedFrame,
                          "StoreTopKBatch payload malformed");
      }
      std::vector<linalg::VecSpan> spans;
      spans.reserve(req.queries.size());
      for (const linalg::VectorF& q : req.queries) {
        if (q.size() != store_.dim()) {
          return ErrorFrame(id, WireError::kInvalidArgument,
                            "query dimension does not match the store");
        }
        spans.emplace_back(q);
      }
      // k comes from outside: clamp it before the scan sizes anything by it
      // (heaps reserve k slots). No store returns more than size() hits, so
      // the clamp never changes a reply.
      const size_t k = std::min<size_t>(req.k, store_.size());
      StoreTopKBatchReply reply;
      reply.results = store_.TopKBatch(spans, k, req.seen, pool_);
      return EncodeFrame(FrameType::kStoreTopKBatchReply, id,
                         EncodeStoreTopKBatchReply(reply));
    }

    case FrameType::kStoreGetVector: {
      StoreGetVectorRequest req;
      if (!DecodeStoreGetVectorRequest(payload, &req)) {
        return ErrorFrame(id, WireError::kMalformedFrame,
                          "StoreGetVector payload malformed");
      }
      if (req.id >= store_.size()) {
        return ErrorFrame(id, WireError::kNotFound,
                          "vector id out of range");
      }
      linalg::VecSpan v = store_.GetVector(req.id);
      StoreGetVectorReply reply;
      reply.vector.assign(v.begin(), v.end());
      return EncodeFrame(FrameType::kStoreGetVectorReply, id,
                         EncodeStoreGetVectorReply(reply));
    }

    default:
      return ErrorFrame(id, WireError::kUnknownType,
                        "not a store frame type");
  }
}

}  // namespace seesaw::net
