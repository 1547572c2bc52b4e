// RpcChannel: the one request/reply client of the SeeSaw wire protocol.
// SeeSawClient (session frames) and store::RemoteStore (store frames) are
// thin codecs over it; every deadline, retry, reconnect and stale-reply
// decision lives here, once, behind the Transport seam.
//
// Semantics of one RoundTrip, in order of precedence:
//   - cancellation: the token is polled before each attempt and inside the
//     transport's wait; a cancelled call returns Cancelled.
//   - deadline: each attempt gets options.request_deadline_seconds for its
//     whole reply; expiry is a typed DeadlineExceeded and is never retried.
//   - shed replies: a wire code for which IsRetriable() holds (RETRY_LATER:
//     nothing changed on the server) is resent after a jittered, capped,
//     exponential backoff (BackoffDelaySeconds). QUOTA_EXCEEDED and every
//     other typed error are final.
//   - IO failures: the stream is marked broken. An idempotent frame (see
//     IsIdempotent) reconnects and is resent under the same retry budget;
//     a session frame is never resent, because the server may already have
//     applied it. Either way a broken stream is reconnected before the next
//     call's first send.
// Request ids only grow on a channel, so a reply with a smaller id is a
// stale duplicate and is skipped; a larger one breaks the stream.
//
// Not thread-safe: the owner serializes calls (RemoteStore holds a mutex
// across each RPC; a SeeSawClient belongs to one session driver).
#ifndef SEESAW_NET_RPC_CHANNEL_H_
#define SEESAW_NET_RPC_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"
#include "net/transport.h"
#include "net/wire.h"

namespace seesaw::net {

struct RpcOptions {
  /// Wall-clock budget for one RPC attempt (send + full reply). <= 0
  /// disables the deadline (tests only; production always wants one).
  double request_deadline_seconds = 5.0;
  /// Resends after the first attempt (RETRY_LATER, or an IO failure of an
  /// idempotent frame).
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
double BackoffDelaySeconds(const RpcOptions& options, size_t attempt,
                           Rng& rng);

class RpcChannel {
 public:
  RpcChannel(std::unique_ptr<Transport> transport, RpcOptions options);

  /// Sends `payload` as `type` and blocks for the matching reply payload
  /// under the semantics above. A typed error reply surfaces as its Status
  /// (both shedding codes as ResourceExhausted, like the in-process
  /// manager); last_wire_error() tells them apart.
  StatusOr<std::string> RoundTrip(FrameType type, std::string_view payload,
                                  const CancellationToken* cancel = nullptr);

  /// The error-frame code of the current call's last attempt: kNone after
  /// a success or a transport failure. Reset at the start of every call.
  WireError last_wire_error() const { return last_wire_error_; }

  /// Resends issued so far over the channel's lifetime.
  uint64_t retries() const { return retries_; }

 private:
  /// One attempt: send, deadline-bounded reads until our id, error decode
  /// and reply-type check.
  StatusOr<std::string> TryOnce(FrameType type, std::string_view payload,
                                uint64_t request_id,
                                const CancellationToken* cancel);

  std::unique_ptr<Transport> transport_;
  RpcOptions options_;
  Rng backoff_rng_;
  uint64_t next_request_id_ = 1;
  /// Set when a failure left the stream mid-frame or closed; the next
  /// attempt reconnects before it sends.
  bool broken_ = false;
  WireError last_wire_error_ = WireError::kNone;
  uint64_t retries_ = 0;
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_RPC_CHANNEL_H_
