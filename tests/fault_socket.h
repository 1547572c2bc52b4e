// FaultTransport: a scripted, socket-free peer for any RpcChannel client.
//
// Implements net::Transport over a frame-handler callback — requests are
// answered in-process through the real codecs (a StoreFrameService for
// RemoteStore tests, a small scripted session handler for SeeSawClient
// tests), but each round trip first consults a fault script that can delay
// the reply past the deadline, truncate it mid-frame, drop the connection,
// shed with RETRY_LATER, or deliver a stale duplicate before the real
// reply. Time is a virtual clock the Delay step advances, and the script
// is a fixed list consumed in order, so every failure-semantics test is
// exactly reproducible: no real sockets, no wall-clock sleeps, no races.
//
// Step consumption: one script step per Send() (request round trip). The
// FIRST RPC a RemoteStore issues is the kStoreInfo probe inside
// RemoteStore::Create — scripts must budget a step for it (Pass(), unless
// the test targets Create itself). An exhausted script behaves as Pass
// forever. Retries re-enter Send(), so each retry attempt consumes its own
// step — a script {Pass, RetryLater, RetryLater, Pass} exercises
// "shed twice, then succeed".
#ifndef SEESAW_TESTS_FAULT_SOCKET_H_
#define SEESAW_TESTS_FAULT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "net/transport.h"
#include "net/wire.h"

namespace seesaw::test_util {

enum class FaultKind {
  /// Deliver the real reply.
  kPass,
  /// Answer with a RETRY_LATER error frame (graceful shedding) instead of
  /// dispatching the request.
  kRetryLater,
  /// The connection dies mid-reply: ReadFrame fails like a peer that
  /// closed after sending a partial frame. Unusable until Reconnect().
  kTruncate,
  /// The connection dies before any reply byte. Unusable until Reconnect().
  kDrop,
  /// Advance the virtual clock by `seconds` "while waiting": when that
  /// crosses the caller's deadline the read fails DeadlineExceeded,
  /// otherwise the real reply is delivered late.
  kDelay,
  /// Deliver a stale duplicate (the real reply re-framed under the
  /// previous request id) first, then the real reply — a repeating peer.
  kDuplicate,
};

struct FaultStep {
  FaultKind kind = FaultKind::kPass;
  /// kDelay only: virtual seconds the reply is late.
  double seconds = 0;
};

inline FaultStep Pass() { return {FaultKind::kPass}; }
inline FaultStep RetryLater() { return {FaultKind::kRetryLater}; }
inline FaultStep Truncate() { return {FaultKind::kTruncate}; }
inline FaultStep Drop() { return {FaultKind::kDrop}; }
inline FaultStep Delay(double seconds) { return {FaultKind::kDelay, seconds}; }
inline FaultStep Duplicate() { return {FaultKind::kDuplicate}; }

/// Answers one request frame with the bytes of its whole reply frame (the
/// matching reply type or a kError frame, echoing header.request_id).
using FrameHandler = std::function<std::string(const net::FrameHeader& header,
                                               std::string_view payload)>;

class FaultTransport : public net::Transport {
 public:
  /// Replies come from `handler` (which must outlive the transport when it
  /// captures by reference).
  FaultTransport(FrameHandler handler, std::vector<FaultStep> script)
      : handler_(std::move(handler)), script_(script.begin(), script.end()) {}

  Status Send(std::string_view frame) override;
  Status ReadFrame(net::FrameHeader* header, std::string* payload,
                   size_t max_payload_bytes, double deadline_seconds,
                   const CancellationToken* cancel) override;
  Status Reconnect() override;

  /// Virtual seconds accumulated by Delay steps.
  double virtual_now() const { return now_; }
  /// Round trips attempted (Send calls that reached a live connection).
  size_t sends() const { return sends_; }
  size_t reconnects() const { return reconnects_; }
  /// Script steps not yet consumed (0 = every scripted fault fired).
  size_t steps_left() const { return script_.size(); }

 private:
  FrameHandler handler_;
  std::deque<FaultStep> script_;
  /// Reply frames queued for ReadFrame, front first.
  std::deque<std::string> inbox_;
  bool connected_ = true;
  /// Virtual seconds ReadFrame will burn before delivering (set by Send
  /// when it consumes a Delay step).
  double pending_delay_ = 0;
  uint64_t last_request_id_ = 0;
  double now_ = 0;
  size_t sends_ = 0;
  size_t reconnects_ = 0;
};

}  // namespace seesaw::test_util

#endif  // SEESAW_TESTS_FAULT_SOCKET_H_
