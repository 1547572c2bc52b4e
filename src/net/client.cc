#include "net/client.h"

#include <limits>
#include <utility>

namespace seesaw::net {

namespace {

StatusOr<uint64_t> CreateVia(RpcChannel& channel,
                             const CreateSessionRequest& req) {
  SEESAW_ASSIGN_OR_RETURN(
      std::string payload,
      channel.RoundTrip(FrameType::kCreateSession,
                        EncodeCreateSessionRequest(req)));
  CreateSessionReply reply;
  if (!DecodeCreateSessionReply(payload, &reply)) {
    return Status::IoError("CreateSession reply malformed");
  }
  return reply.session_id;
}

}  // namespace

StatusOr<SeeSawClient> SeeSawClient::Connect(const std::string& host,
                                             uint16_t port,
                                             RpcOptions options) {
  SEESAW_ASSIGN_OR_RETURN(std::unique_ptr<TcpTransport> transport,
                          TcpTransport::Connect(host, port));
  return Create(std::move(transport), std::move(options));
}

SeeSawClient SeeSawClient::Create(std::unique_ptr<Transport> transport,
                                  RpcOptions options) {
  return SeeSawClient(RpcChannel(std::move(transport), std::move(options)));
}

StatusOr<uint64_t> SeeSawClient::CreateSession(const std::string& text_query,
                                               const std::string& user) {
  CreateSessionRequest req;
  req.user = user;
  req.by_vector = false;
  req.text_query = text_query;
  return CreateVia(channel_, req);
}

StatusOr<uint64_t> SeeSawClient::CreateSessionFromVector(
    linalg::VectorF query_vector, const std::string& user) {
  CreateSessionRequest req;
  req.user = user;
  req.by_vector = true;
  req.query_vector = std::move(query_vector);
  return CreateVia(channel_, req);
}

StatusOr<std::vector<core::ScoredImage>> SeeSawClient::NextBatch(
    uint64_t session_id, size_t n) {
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("NextBatch n exceeds the u32 wire field");
  }
  NextBatchRequest req;
  req.session_id = session_id;
  req.n = static_cast<uint32_t>(n);
  SEESAW_ASSIGN_OR_RETURN(
      std::string payload,
      channel_.RoundTrip(FrameType::kNextBatch, EncodeNextBatchRequest(req)));
  NextBatchReply reply;
  if (!DecodeNextBatchReply(payload, &reply)) {
    return Status::IoError("NextBatch reply malformed");
  }
  return std::move(reply.batch);
}

Status SeeSawClient::AddFeedback(uint64_t session_id,
                                 const core::ImageFeedback& feedback) {
  AddFeedbackRequest req;
  req.session_id = session_id;
  req.feedback = feedback;
  return channel_
      .RoundTrip(FrameType::kAddFeedback, EncodeAddFeedbackRequest(req))
      .status();
}

Status SeeSawClient::Refit(uint64_t session_id) {
  SessionRequest req;
  req.session_id = session_id;
  return channel_.RoundTrip(FrameType::kRefit, EncodeSessionRequest(req))
      .status();
}

Status SeeSawClient::CloseSession(uint64_t session_id) {
  SessionRequest req;
  req.session_id = session_id;
  return channel_
      .RoundTrip(FrameType::kCloseSession, EncodeSessionRequest(req))
      .status();
}

Status SeeSawClient::Ping() {
  return channel_.RoundTrip(FrameType::kPing, "").status();
}

}  // namespace seesaw::net
