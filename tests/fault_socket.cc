#include "tests/fault_socket.h"

#include <utility>

namespace seesaw::test_util {

Status FaultTransport::Send(std::string_view frame) {
  if (!connected_) return Status::IoError("transport is disconnected");

  net::FrameHeader header;
  if (!net::DecodeHeader(frame, &header) ||
      frame.size() != net::kHeaderBytes + header.payload_len) {
    return Status::IoError("FaultTransport: caller sent a malformed frame");
  }
  ++sends_;
  std::string_view payload = frame.substr(net::kHeaderBytes);

  FaultStep step = Pass();
  if (!script_.empty()) {
    step = script_.front();
    script_.pop_front();
  }

  switch (step.kind) {
    case FaultKind::kRetryLater: {
      net::ErrorReply shed;
      shed.code = net::WireError::kRetryLater;
      shed.message = "scripted shed";
      inbox_.push_back(net::EncodeFrame(net::FrameType::kError,
                                        header.request_id,
                                        net::EncodeErrorReply(shed)));
      break;
    }
    case FaultKind::kTruncate:
    case FaultKind::kDrop:
      // Both kill the connection before a whole reply arrives; kTruncate
      // models bytes on the wire when it died (the read fails mid-frame,
      // exactly TcpTransport's "connection closed mid-frame"), kDrop a
      // peer that never wrote. At the whole-frame Transport seam they
      // surface identically — the byte-level truncation sweep lives in
      // net_protocol_test where WireReader can see partial payloads.
      connected_ = false;
      inbox_.clear();
      break;
    case FaultKind::kDelay:
      pending_delay_ = step.seconds;
      [[fallthrough]];
    case FaultKind::kPass: {
      std::string reply = handler_(header, payload);
      inbox_.push_back(std::move(reply));
      break;
    }
    case FaultKind::kDuplicate: {
      std::string reply = handler_(header, payload);
      // The duplicate is the same reply under the previous request id — a
      // peer that repeated an old answer before the current one.
      net::FrameHeader reply_header;
      net::DecodeHeader(reply, &reply_header);
      inbox_.push_back(net::EncodeFrame(
          reply_header.type, last_request_id_,
          std::string_view(reply).substr(net::kHeaderBytes)));
      inbox_.push_back(std::move(reply));
      break;
    }
  }
  last_request_id_ = header.request_id;
  return Status::OK();
}

Status FaultTransport::ReadFrame(net::FrameHeader* header,
                                 std::string* payload,
                                 size_t max_payload_bytes,
                                 double deadline_seconds,
                                 const CancellationToken* cancel) {
  if (cancel != nullptr && cancel->cancelled()) {
    return Status::Cancelled("read cancelled");
  }
  if (pending_delay_ > 0) {
    const double wait = pending_delay_;
    pending_delay_ = 0;
    if (deadline_seconds > 0 && wait >= deadline_seconds) {
      // The reply would land after the deadline: burn exactly the budget
      // and fail the way a sliced poll() wait does. The late bytes are
      // torn up with the (now unusable) stream.
      now_ += deadline_seconds;
      inbox_.clear();
      connected_ = false;
      return Status::DeadlineExceeded("read deadline exceeded");
    }
    now_ += wait;
  }
  if (inbox_.empty()) {
    if (!connected_) return Status::IoError("connection closed mid-frame");
    // A live connection with nothing scripted to arrive would block
    // forever; in a deterministic harness that is a test bug, surface it.
    return Status::Internal("FaultTransport: read with no scripted reply");
  }
  std::string frame = std::move(inbox_.front());
  inbox_.pop_front();
  if (!net::DecodeHeader(frame, header)) {
    return Status::IoError("bad reply frame header");
  }
  if (header->payload_len > max_payload_bytes) {
    return Status::IoError("reply payload exceeds the client size cap");
  }
  payload->assign(frame, net::kHeaderBytes, header->payload_len);
  return Status::OK();
}

Status FaultTransport::Reconnect() {
  connected_ = true;
  inbox_.clear();
  pending_delay_ = 0;
  ++reconnects_;
  return Status::OK();
}

}  // namespace seesaw::test_util
