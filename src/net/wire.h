// The SeeSaw serving wire protocol: length-prefixed binary frames carrying
// the session API (CreateSession / NextBatch / AddFeedback / Refit /
// CloseSession) over a byte stream.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic       0x53534157 ("SSAW" read as LE u32 bytes W A S S)
//   4       2     version     kProtocolVersion; mismatches get a typed
//                             UNSUPPORTED_VERSION error and the connection
//                             is closed (the stream cannot be re-synced)
//   6       2     type        FrameType
//   8       8     request_id  chosen by the client, echoed verbatim in the
//                             reply (including error replies), so a client
//                             may pipeline requests on one connection
//   16      4     payload_len payload bytes following the header; capped by
//                             ServerOptions::max_payload_bytes
//   20      ...   payload     per-type body, see the message structs below
//
// Every request type R has a reply type (R | kReplyBit); failures of any
// request are answered with a kError frame instead, carrying a WireError
// code and a message. kRetryLater is the graceful-shedding reply: the server
// is saturated (bounded request queue full, or the session already has its
// maximum requests in flight) and the client should back off and resend —
// nothing about the session changed.
//
// This header is deliberately socket-free (pure bytes <-> structs) so the
// codec is unit-testable and fuzzable without a server; all raw socket use
// lives in socket.cc / server.cc (scripts/check_invariants.py
// confines it to src/net/).
#ifndef SEESAW_NET_WIRE_H_
#define SEESAW_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/searcher.h"
#include "linalg/vector_ops.h"
#include "store/seen_set.h"
#include "store/vector_store.h"

namespace seesaw::net {

inline constexpr uint32_t kMagic = 0x53534157u;  // "SSAW"
inline constexpr uint16_t kProtocolVersion = 1;
inline constexpr size_t kHeaderBytes = 20;

/// Reply frame types are their request type with this bit set.
inline constexpr uint16_t kReplyBit = 0x80;

enum class FrameType : uint16_t {
  kCreateSession = 1,
  kNextBatch = 2,
  kAddFeedback = 3,
  kRefit = 4,
  kCloseSession = 5,
  kPing = 6,

  // Shard-serving store API (store::RemoteStore <-> SeeSawServer in store
  // mode): raw VectorStore lookups against the peer's local store. Results
  // cross the wire in the canonical (score desc, id asc) order with float
  // bits intact, which is what makes remote-vs-local scans bitwise
  // comparable. Types are wire contract — append, never renumber.
  kStoreInfo = 7,
  // 8 was kStoreTopK (a single-query lookup, retired: a single query is a
  // kStoreTopKBatch of one). Never reuse it; peers answer it kUnknownType.
  kStoreTopKBatch = 9,
  kStoreGetVector = 10,

  kCreateSessionReply = kCreateSession | kReplyBit,
  kNextBatchReply = kNextBatch | kReplyBit,
  kAddFeedbackReply = kAddFeedback | kReplyBit,
  kRefitReply = kRefit | kReplyBit,
  kCloseSessionReply = kCloseSession | kReplyBit,
  kPingReply = kPing | kReplyBit,
  kStoreInfoReply = kStoreInfo | kReplyBit,
  kStoreTopKBatchReply = kStoreTopKBatch | kReplyBit,
  kStoreGetVectorReply = kStoreGetVector | kReplyBit,

  kError = 0xFF,
};

/// Typed error codes carried by kError frames. Codes are wire contract —
/// append, never renumber.
enum class WireError : uint16_t {
  kNone = 0,
  /// Graceful shedding: the server is saturated (bounded request queue full
  /// or the target session is at its in-flight cap). Back off and resend;
  /// no session state changed.
  kRetryLater = 1,
  /// The byte stream does not parse (bad magic, truncated payload, payload
  /// over the size cap, or a body that does not decode). The connection is
  /// closed after this reply — framing cannot be trusted anymore.
  kMalformedFrame = 2,
  kUnsupportedVersion = 3,
  kUnknownType = 4,
  /// Unknown / closed / evicted session id, or an unknown text query.
  kNotFound = 5,
  kInvalidArgument = 6,
  /// Per-user session quota exhausted (CreateSession only).
  kQuotaExceeded = 7,
  kInternal = 8,
  /// The server is stopping; the connection will close.
  kShuttingDown = 9,
};

/// Human-readable name ("RETRY_LATER", "QUOTA_EXCEEDED", ...).
std::string_view WireErrorName(WireError code);

/// True for errors a client should resolve by waiting and resending the
/// same frame (the shedding contract).
inline bool IsRetriable(WireError code) {
  return code == WireError::kRetryLater;
}

/// True for request frames a client may resend after an IO failure or a
/// reconnect: pure reads of server state (Ping and the store frames). The
/// session frames mutate a session, and the server may already have applied
/// one whose reply was lost, so they are never resent blind.
inline bool IsIdempotent(FrameType type) {
  return type == FrameType::kPing || type == FrameType::kStoreInfo ||
         type == FrameType::kStoreTopKBatch ||
         type == FrameType::kStoreGetVector;
}

struct FrameHeader {
  uint16_t version = kProtocolVersion;
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

// ------------------------------------------------------------ byte codecs --

/// Appends little-endian primitives to a growing byte string.
class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// Float bits (bitwise, so scores survive the wire exactly).
  void F32(float v);
  /// u32 length followed by the raw bytes.
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads little-endian primitives from a byte span; any overrun latches a
/// failure flag (all subsequent reads fail too) instead of touching memory
/// past the end — malformed payloads fail decode, they cannot crash.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F32(float* v);
  bool Str(std::string* s);

  bool ok() const { return ok_; }
  /// True when every byte was consumed (decoders require this: trailing
  /// garbage means a framing bug, not a forward-compatible extension).
  bool Exhausted() const { return ok_ && pos_ == bytes_.size(); }

  /// Unread bytes left. Decoders check a decoded length field against this
  /// BEFORE resizing an output container: a hostile length prefix must fail
  /// the bounds check, not trigger a huge speculative allocation.
  size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }

 private:
  bool Take(void* dst, size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// -------------------------------------------------------------- messages --

struct CreateSessionRequest {
  /// User key for per-user session quotas ("" = anonymous).
  std::string user;
  /// Exactly one of the two query forms; `by_vector` selects.
  bool by_vector = false;
  std::string text_query;
  linalg::VectorF query_vector;
};

struct CreateSessionReply {
  uint64_t session_id = 0;
};

struct NextBatchRequest {
  uint64_t session_id = 0;
  uint32_t n = 0;
};

struct NextBatchReply {
  std::vector<core::ScoredImage> batch;
};

struct AddFeedbackRequest {
  uint64_t session_id = 0;
  core::ImageFeedback feedback;
};

/// Refit and CloseSession share this body (just the target session).
struct SessionRequest {
  uint64_t session_id = 0;
};

struct ErrorReply {
  WireError code = WireError::kNone;
  std::string message;
};

// --- store frames (shard serving) ---

/// kStoreInfo carries no request body; the reply describes the peer's store.
struct StoreInfoReply {
  uint64_t size = 0;  ///< number of vectors the peer serves
  uint32_t dim = 0;   ///< their dimensionality
};

/// A lookup against the peer's store: the whole query batch in one frame,
/// one result list per query in the reply. The seen set is the shard-local
/// Slice the sharded caller already computes — capacity plus raw bit words
/// (SeenSet::words()), so the peer reconstructs exactly the exclusion view
/// a local child store would have been handed.
struct StoreTopKBatchRequest {
  std::vector<linalg::VectorF> queries;
  uint32_t k = 0;
  store::SeenSet seen;
};

/// results[i] answers queries[i]: hits in canonical order, float bits
/// intact.
struct StoreTopKBatchReply {
  std::vector<std::vector<store::SearchResult>> results;
};

/// Row fetch (RemoteStore::GetVector). Out-of-range ids get a kNotFound
/// error frame.
struct StoreGetVectorRequest {
  uint32_t id = 0;
};

struct StoreGetVectorReply {
  linalg::VectorF vector;
};

// ------------------------------------------------------- frame assembly --

/// One whole frame: header (with payload_len filled in) + payload.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload);

/// Parses the 20-byte header. Returns false when `bytes` is shorter than
/// kHeaderBytes or the magic does not match (the caller closes the
/// connection — without the magic there is no resync point).
bool DecodeHeader(std::string_view bytes, FrameHeader* header);

// Per-message payload codecs. Encode returns the payload bytes (not a whole
// frame); Decode returns false when the payload does not parse exactly.
std::string EncodeCreateSessionRequest(const CreateSessionRequest& msg);
bool DecodeCreateSessionRequest(std::string_view payload,
                                CreateSessionRequest* msg);
std::string EncodeCreateSessionReply(const CreateSessionReply& msg);
bool DecodeCreateSessionReply(std::string_view payload,
                              CreateSessionReply* msg);

std::string EncodeNextBatchRequest(const NextBatchRequest& msg);
bool DecodeNextBatchRequest(std::string_view payload, NextBatchRequest* msg);
std::string EncodeNextBatchReply(const NextBatchReply& msg);
bool DecodeNextBatchReply(std::string_view payload, NextBatchReply* msg);

std::string EncodeAddFeedbackRequest(const AddFeedbackRequest& msg);
bool DecodeAddFeedbackRequest(std::string_view payload,
                              AddFeedbackRequest* msg);

std::string EncodeSessionRequest(const SessionRequest& msg);
bool DecodeSessionRequest(std::string_view payload, SessionRequest* msg);

std::string EncodeErrorReply(const ErrorReply& msg);
bool DecodeErrorReply(std::string_view payload, ErrorReply* msg);

std::string EncodeStoreInfoReply(const StoreInfoReply& msg);
bool DecodeStoreInfoReply(std::string_view payload, StoreInfoReply* msg);

std::string EncodeStoreTopKBatchRequest(const StoreTopKBatchRequest& msg);
bool DecodeStoreTopKBatchRequest(std::string_view payload,
                                 StoreTopKBatchRequest* msg);
std::string EncodeStoreTopKBatchReply(const StoreTopKBatchReply& msg);
bool DecodeStoreTopKBatchReply(std::string_view payload,
                               StoreTopKBatchReply* msg);

std::string EncodeStoreGetVectorRequest(const StoreGetVectorRequest& msg);
bool DecodeStoreGetVectorRequest(std::string_view payload,
                                 StoreGetVectorRequest* msg);
std::string EncodeStoreGetVectorReply(const StoreGetVectorReply& msg);
bool DecodeStoreGetVectorReply(std::string_view payload,
                               StoreGetVectorReply* msg);

}  // namespace seesaw::net

#endif  // SEESAW_NET_WIRE_H_
