#include "net/wire.h"

#include <cstring>

namespace seesaw::net {

namespace {

// Sanity caps on variable-length payload fields, separate from the frame-
// level max_payload_bytes cap: a frame whose *length fields* promise more
// than the frame can physically carry is malformed, and bounding them here
// keeps a hostile length from triggering a huge speculative reserve().
constexpr uint32_t kMaxStringBytes = 1u << 20;   // 1 MiB text / user key
constexpr uint32_t kMaxVectorDims = 1u << 20;    // 1M floats
constexpr uint32_t kMaxBatchEntries = 1u << 20;  // 1M results
constexpr uint32_t kMaxBoxes = 1u << 16;         // 64K region boxes
// Shard seen-set exclusions: capacity is bounded by the shard's row count,
// so 1<<27 ids (16 MiB of words) covers any shard the scale work reaches
// while keeping a hostile capacity field from promising gigabytes.
constexpr uint64_t kMaxSeenCapacity = 1ull << 27;
constexpr uint32_t kMaxStoreQueries = 1u << 12;  // 4K queries per batch frame

// Shared sub-codecs for the store frames: a query vector and a SeenSet.
// Every length field is checked against BOTH its sanity cap and the bytes
// actually remaining before any container is resized (see
// WireReader::remaining) — the length prefix of an untrusted payload must
// never size an allocation.
void EncodeVector(WireWriter& w, const linalg::VectorF& v) {
  w.U32(static_cast<uint32_t>(v.size()));
  for (float x : v) w.F32(x);
}

bool DecodeVector(WireReader& r, linalg::VectorF* v) {
  uint32_t dim;
  if (!r.U32(&dim) || dim > kMaxVectorDims) return false;
  if (r.remaining() < size_t{dim} * 4) return false;
  v->resize(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    if (!r.F32(&(*v)[i])) return false;
  }
  return true;
}

void EncodeSeenSet(WireWriter& w, const store::SeenSet& seen) {
  w.U64(seen.capacity());
  for (uint64_t word : seen.words()) w.U64(word);
}

bool DecodeSeenSet(WireReader& r, store::SeenSet* seen) {
  uint64_t capacity;
  if (!r.U64(&capacity) || capacity > kMaxSeenCapacity) return false;
  const size_t num_words = (capacity + 63) / 64;
  if (r.remaining() < num_words * 8) return false;
  std::vector<uint64_t> words(num_words);
  for (size_t i = 0; i < num_words; ++i) {
    if (!r.U64(&words[i])) return false;
  }
  *seen = store::SeenSet::FromWords(static_cast<size_t>(capacity),
                                    std::move(words));
  return true;
}

void EncodeResults(WireWriter& w,
                   const std::vector<store::SearchResult>& results) {
  w.U32(static_cast<uint32_t>(results.size()));
  for (const store::SearchResult& hit : results) {
    w.U32(hit.id);
    w.F32(hit.score);
  }
}

bool DecodeResults(WireReader& r, std::vector<store::SearchResult>* results) {
  uint32_t count;
  if (!r.U32(&count) || count > kMaxBatchEntries) return false;
  if (r.remaining() < size_t{count} * 8) return false;
  results->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.U32(&(*results)[i].id) || !r.F32(&(*results)[i].score)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view WireErrorName(WireError code) {
  switch (code) {
    case WireError::kNone: return "NONE";
    case WireError::kRetryLater: return "RETRY_LATER";
    case WireError::kMalformedFrame: return "MALFORMED_FRAME";
    case WireError::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case WireError::kUnknownType: return "UNKNOWN_TYPE";
    case WireError::kNotFound: return "NOT_FOUND";
    case WireError::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireError::kQuotaExceeded: return "QUOTA_EXCEEDED";
    case WireError::kInternal: return "INTERNAL";
    case WireError::kShuttingDown: return "SHUTTING_DOWN";
  }
  return "UNKNOWN";
}

// ------------------------------------------------------------ WireWriter --

void WireWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v));
  U8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v));
  U16(static_cast<uint16_t>(v >> 16));
}

void WireWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::F32(float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U32(bits);
}

void WireWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

// ------------------------------------------------------------ WireReader --

bool WireReader::Take(void* dst, size_t n) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(dst, bytes_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) { return Take(v, 1); }

bool WireReader::U16(uint16_t* v) {
  uint8_t b[2];
  if (!Take(b, 2)) return false;
  *v = static_cast<uint16_t>(b[0] | (b[1] << 8));
  return true;
}

bool WireReader::U32(uint32_t* v) {
  uint8_t b[4];
  if (!Take(b, 4)) return false;
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

bool WireReader::U64(uint64_t* v) {
  uint32_t lo, hi;
  if (!U32(&lo) || !U32(&hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool WireReader::F32(float* v) {
  uint32_t bits;
  if (!U32(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool WireReader::Str(std::string* s) {
  uint32_t len;
  if (!U32(&len)) return false;
  if (len > kMaxStringBytes || bytes_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  s->assign(bytes_.data() + pos_, len);
  pos_ += len;
  return true;
}

// -------------------------------------------------------- frame assembly --

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload) {
  WireWriter w;
  w.U32(kMagic);
  w.U16(kProtocolVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(payload.size()));
  std::string frame = w.Take();
  frame.append(payload.data(), payload.size());
  return frame;
}

bool DecodeHeader(std::string_view bytes, FrameHeader* header) {
  if (bytes.size() < kHeaderBytes) return false;
  WireReader r(bytes.substr(0, kHeaderBytes));
  uint32_t magic;
  uint16_t type;
  if (!r.U32(&magic) || magic != kMagic) return false;
  if (!r.U16(&header->version) || !r.U16(&type) ||
      !r.U64(&header->request_id) || !r.U32(&header->payload_len)) {
    return false;
  }
  header->type = static_cast<FrameType>(type);
  return true;
}

// ------------------------------------------------------ message codecs --

std::string EncodeCreateSessionRequest(const CreateSessionRequest& msg) {
  WireWriter w;
  w.Str(msg.user);
  w.U8(msg.by_vector ? 1 : 0);
  if (msg.by_vector) {
    w.U32(static_cast<uint32_t>(msg.query_vector.size()));
    for (float v : msg.query_vector) w.F32(v);
  } else {
    w.Str(msg.text_query);
  }
  return w.Take();
}

bool DecodeCreateSessionRequest(std::string_view payload,
                                CreateSessionRequest* msg) {
  WireReader r(payload);
  uint8_t by_vector;
  if (!r.Str(&msg->user) || !r.U8(&by_vector)) return false;
  msg->by_vector = by_vector != 0;
  if (by_vector > 1) return false;
  if (msg->by_vector) {
    if (!DecodeVector(r, &msg->query_vector)) return false;
  } else if (!r.Str(&msg->text_query)) {
    return false;
  }
  return r.Exhausted();
}

std::string EncodeCreateSessionReply(const CreateSessionReply& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  return w.Take();
}

bool DecodeCreateSessionReply(std::string_view payload,
                              CreateSessionReply* msg) {
  WireReader r(payload);
  return r.U64(&msg->session_id) && r.Exhausted();
}

std::string EncodeNextBatchRequest(const NextBatchRequest& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  w.U32(msg.n);
  return w.Take();
}

bool DecodeNextBatchRequest(std::string_view payload, NextBatchRequest* msg) {
  WireReader r(payload);
  return r.U64(&msg->session_id) && r.U32(&msg->n) && r.Exhausted();
}

std::string EncodeNextBatchReply(const NextBatchReply& msg) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(msg.batch.size()));
  for (const core::ScoredImage& hit : msg.batch) {
    w.U32(hit.image_idx);
    w.F32(hit.score);
  }
  return w.Take();
}

bool DecodeNextBatchReply(std::string_view payload, NextBatchReply* msg) {
  WireReader r(payload);
  uint32_t count;
  if (!r.U32(&count) || count > kMaxBatchEntries) return false;
  // Bound the resize by the bytes actually present (8 per entry), not just
  // the sanity cap: a corrupt length prefix on a short payload must fail
  // here, not reserve a million entries first.
  if (r.remaining() < size_t{count} * 8) return false;
  msg->batch.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!r.U32(&msg->batch[i].image_idx) || !r.F32(&msg->batch[i].score)) {
      return false;
    }
  }
  return r.Exhausted();
}

std::string EncodeAddFeedbackRequest(const AddFeedbackRequest& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  w.U32(msg.feedback.image_idx);
  w.U8(msg.feedback.relevant ? 1 : 0);
  w.U32(static_cast<uint32_t>(msg.feedback.boxes.size()));
  for (const data::Box& box : msg.feedback.boxes) {
    w.F32(box.x0);
    w.F32(box.y0);
    w.F32(box.x1);
    w.F32(box.y1);
  }
  return w.Take();
}

bool DecodeAddFeedbackRequest(std::string_view payload,
                              AddFeedbackRequest* msg) {
  WireReader r(payload);
  uint8_t relevant;
  uint32_t num_boxes;
  if (!r.U64(&msg->session_id) || !r.U32(&msg->feedback.image_idx) ||
      !r.U8(&relevant) || !r.U32(&num_boxes)) {
    return false;
  }
  if (relevant > 1 || num_boxes > kMaxBoxes) return false;
  if (r.remaining() < size_t{num_boxes} * 16) return false;  // 4 floats/box
  msg->feedback.relevant = relevant != 0;
  msg->feedback.boxes.resize(num_boxes);
  for (uint32_t i = 0; i < num_boxes; ++i) {
    data::Box& box = msg->feedback.boxes[i];
    if (!r.F32(&box.x0) || !r.F32(&box.y0) || !r.F32(&box.x1) ||
        !r.F32(&box.y1)) {
      return false;
    }
  }
  return r.Exhausted();
}

std::string EncodeSessionRequest(const SessionRequest& msg) {
  WireWriter w;
  w.U64(msg.session_id);
  return w.Take();
}

bool DecodeSessionRequest(std::string_view payload, SessionRequest* msg) {
  WireReader r(payload);
  return r.U64(&msg->session_id) && r.Exhausted();
}

std::string EncodeErrorReply(const ErrorReply& msg) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(msg.code));
  w.Str(msg.message);
  return w.Take();
}

bool DecodeErrorReply(std::string_view payload, ErrorReply* msg) {
  WireReader r(payload);
  uint16_t code;
  if (!r.U16(&code) || !r.Str(&msg->message)) return false;
  msg->code = static_cast<WireError>(code);
  return r.Exhausted();
}

// --------------------------------------------------- store frame codecs --

std::string EncodeStoreInfoReply(const StoreInfoReply& msg) {
  WireWriter w;
  w.U64(msg.size);
  w.U32(msg.dim);
  return w.Take();
}

bool DecodeStoreInfoReply(std::string_view payload, StoreInfoReply* msg) {
  WireReader r(payload);
  return r.U64(&msg->size) && r.U32(&msg->dim) && r.Exhausted();
}

std::string EncodeStoreTopKBatchRequest(const StoreTopKBatchRequest& msg) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(msg.queries.size()));
  for (const linalg::VectorF& q : msg.queries) EncodeVector(w, q);
  w.U32(msg.k);
  EncodeSeenSet(w, msg.seen);
  return w.Take();
}

bool DecodeStoreTopKBatchRequest(std::string_view payload,
                                 StoreTopKBatchRequest* msg) {
  WireReader r(payload);
  uint32_t count;
  if (!r.U32(&count) || count > kMaxStoreQueries) return false;
  // Each query costs at least its 4-byte length prefix; bound the batch
  // resize by that floor before allocating.
  if (r.remaining() < size_t{count} * 4) return false;
  msg->queries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!DecodeVector(r, &msg->queries[i])) return false;
  }
  return r.U32(&msg->k) && DecodeSeenSet(r, &msg->seen) && r.Exhausted();
}

std::string EncodeStoreTopKBatchReply(const StoreTopKBatchReply& msg) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(msg.results.size()));
  for (const std::vector<store::SearchResult>& hits : msg.results) {
    EncodeResults(w, hits);
  }
  return w.Take();
}

bool DecodeStoreTopKBatchReply(std::string_view payload,
                               StoreTopKBatchReply* msg) {
  WireReader r(payload);
  uint32_t count;
  if (!r.U32(&count) || count > kMaxStoreQueries) return false;
  if (r.remaining() < size_t{count} * 4) return false;
  msg->results.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!DecodeResults(r, &msg->results[i])) return false;
  }
  return r.Exhausted();
}

std::string EncodeStoreGetVectorRequest(const StoreGetVectorRequest& msg) {
  WireWriter w;
  w.U32(msg.id);
  return w.Take();
}

bool DecodeStoreGetVectorRequest(std::string_view payload,
                                 StoreGetVectorRequest* msg) {
  WireReader r(payload);
  return r.U32(&msg->id) && r.Exhausted();
}

std::string EncodeStoreGetVectorReply(const StoreGetVectorReply& msg) {
  WireWriter w;
  EncodeVector(w, msg.vector);
  return w.Take();
}

bool DecodeStoreGetVectorReply(std::string_view payload,
                               StoreGetVectorReply* msg) {
  WireReader r(payload);
  return DecodeVector(r, &msg->vector) && r.Exhausted();
}

}  // namespace seesaw::net
