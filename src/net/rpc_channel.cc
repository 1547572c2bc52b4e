#include "net/rpc_channel.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/stopwatch.h"

namespace seesaw::net {

namespace {

/// The Status a wire error surfaces as. Both shedding codes map to
/// ResourceExhausted — the same code the in-process manager returns for
/// quota/busy — so drivers written against the manager behave identically
/// against the wire; last_wire_error() disambiguates when it matters.
Status StatusForWire(WireError code, const std::string& message) {
  std::string text = std::string(WireErrorName(code)) + ": " + message;
  switch (code) {
    case WireError::kRetryLater:
    case WireError::kQuotaExceeded:
      return Status::ResourceExhausted(std::move(text));
    case WireError::kNotFound:
      return Status::NotFound(std::move(text));
    case WireError::kInvalidArgument:
    case WireError::kMalformedFrame:
      return Status::InvalidArgument(std::move(text));
    case WireError::kUnsupportedVersion:
      return Status::FailedPrecondition(std::move(text));
    case WireError::kUnknownType:
      return Status::Unimplemented(std::move(text));
    case WireError::kShuttingDown:
      return Status::IoError(std::move(text));
    default:
      return Status::Internal(std::move(text));
  }
}

}  // namespace

double BackoffDelaySeconds(const RpcOptions& options, size_t attempt,
                           Rng& rng) {
  // exp2 of a small attempt count cannot overflow before min() caps it:
  // clamp the exponent anyway so a pathological attempt number stays finite.
  double factor = std::exp2(static_cast<double>(std::min<size_t>(attempt, 60)));
  double base =
      std::min(options.backoff_initial_seconds * factor,
               options.backoff_max_seconds);
  return base * rng.Uniform(0.5, 1.0);
}

RpcChannel::RpcChannel(std::unique_ptr<Transport> transport,
                       RpcOptions options)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      backoff_rng_(options_.backoff_seed) {}

StatusOr<std::string> RpcChannel::TryOnce(FrameType type,
                                          std::string_view payload,
                                          uint64_t request_id,
                                          const CancellationToken* cancel) {
  if (broken_) {
    SEESAW_RETURN_IF_ERROR(transport_->Reconnect());
    broken_ = false;
  }
  SEESAW_RETURN_IF_ERROR(
      transport_->Send(EncodeFrame(type, request_id, payload)));
  Stopwatch clock;
  FrameHeader header;
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
    // Ids on this channel only grow, so a smaller id is a stale duplicate
    // of an already-consumed reply (a faulty peer repeating itself): skip
    // it. A larger id cannot be legitimate — abandon the stream.
    if (header.request_id > request_id) {
      return Status::IoError("reply carries a foreign request id");
    }
  }
  if (header.type == FrameType::kError) {
    ErrorReply error;
    if (!DecodeErrorReply(reply, &error)) {
      return Status::IoError("error reply payload malformed");
    }
    last_wire_error_ = error.code;
    return StatusForWire(error.code, error.message);
  }
  const auto expected =
      static_cast<FrameType>(static_cast<uint16_t>(type) | kReplyBit);
  if (header.type != expected) {
    return Status::IoError("reply type does not match the request");
  }
  return reply;
}

StatusOr<std::string> RpcChannel::RoundTrip(FrameType type,
                                            std::string_view payload,
                                            const CancellationToken* cancel) {
  for (size_t attempt = 0;; ++attempt) {
    last_wire_error_ = WireError::kNone;
    if (cancel != nullptr && cancel->cancelled()) {
      return Status::Cancelled("call cancelled");
    }
    // A fresh id per attempt keeps the monotone-id invariant that the
    // stale-duplicate skip in TryOnce leans on.
    StatusOr<std::string> reply =
        TryOnce(type, payload, next_request_id_++, cancel);
    if (reply.ok()) return reply;
    const Status& failed = reply.status();
    // Only a typed error frame leaves the stream in sync. A transport
    // failure, deadline or cancellation leaves it closed or mid-frame, and
    // SHUTTING_DOWN precedes the server closing it.
    const bool io = failed.code() == StatusCode::kIoError;
    if (io || last_wire_error_ == WireError::kNone) broken_ = true;
    const bool shed = IsRetriable(last_wire_error_);
    if (!shed && !(io && IsIdempotent(type))) return failed;
    if (attempt >= options_.max_retries) {
      return Status(failed.code(), "retries exhausted: " + failed.message());
    }
    double delay = BackoffDelaySeconds(options_, attempt, backoff_rng_);
    if (options_.sleep) {
      options_.sleep(delay);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
    ++retries_;
  }
}

}  // namespace seesaw::net
