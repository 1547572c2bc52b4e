// SeeSawClient under the deterministic fault harness (tests/fault_socket.h):
// a small scripted session peer answers the session frames, and the fault
// script sheds, drops, truncates, delays or duplicates replies. Checks the
// channel's retry rule as the session API sees it — RETRY_LATER is resent
// with backoff, QUOTA_EXCEEDED is final, a session frame is never resent
// after an IO failure (the next call reconnects first), stale duplicates
// are skipped, deadlines are typed — plus last_wire_error() per call and
// the NextBatch wire-width check. Virtual clock only: no sockets, no sleeps.
#include "net/client.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/rpc_channel.h"
#include "net/wire.h"
#include "tests/fault_socket.h"

namespace seesaw {
namespace {

using test_util::Delay;
using test_util::Drop;
using test_util::Duplicate;
using test_util::FaultStep;
using test_util::FaultTransport;
using test_util::Pass;
using test_util::RetryLater;
using test_util::Truncate;

constexpr uint64_t kSessionId = 7;
/// CreateSession for this user is answered QUOTA_EXCEEDED.
constexpr const char* kOverQuotaUser = "over-quota";

/// A scripted session peer: one session whose NextBatch returns images
/// 0..n-1, and which counts the mutating calls it applied.
struct SessionPeer {
  size_t feedback_applied = 0;

  std::string Handle(const net::FrameHeader& header,
                     std::string_view payload) {
    std::string body;
    switch (header.type) {
      case net::FrameType::kCreateSession: {
        net::CreateSessionRequest req;
        EXPECT_TRUE(net::DecodeCreateSessionRequest(payload, &req));
        if (req.user == kOverQuotaUser) {
          return Error(header, net::WireError::kQuotaExceeded);
        }
        body = net::EncodeCreateSessionReply({kSessionId});
        break;
      }
      case net::FrameType::kNextBatch: {
        net::NextBatchRequest req;
        EXPECT_TRUE(net::DecodeNextBatchRequest(payload, &req));
        net::NextBatchReply reply;
        for (uint32_t i = 0; i < req.n; ++i) {
          reply.batch.push_back({i, 1.0f / static_cast<float>(i + 1)});
        }
        body = net::EncodeNextBatchReply(reply);
        break;
      }
      case net::FrameType::kAddFeedback:
        ++feedback_applied;
        break;
      case net::FrameType::kRefit:
      case net::FrameType::kCloseSession:
      case net::FrameType::kPing:
        break;
      default:
        return Error(header, net::WireError::kUnknownType);
    }
    return net::EncodeFrame(
        static_cast<net::FrameType>(static_cast<uint16_t>(header.type) |
                                    net::kReplyBit),
        header.request_id, body);
  }

  static std::string Error(const net::FrameHeader& header,
                           net::WireError code) {
    net::ErrorReply error;
    error.code = code;
    error.message = "scripted";
    return net::EncodeFrame(net::FrameType::kError, header.request_id,
                            net::EncodeErrorReply(error));
  }
};

/// A SeeSawClient over a FaultTransport to a SessionPeer, with backoff
/// sleeps recorded instead of slept.
struct ScriptedClient {
  explicit ScriptedClient(std::vector<FaultStep> script,
                          net::RpcOptions options = {}) {
    options.sleep = [this](double s) { sleeps.push_back(s); };
    auto fault = std::make_unique<FaultTransport>(
        [this](const net::FrameHeader& header, std::string_view payload) {
          return peer.Handle(header, payload);
        },
        std::move(script));
    transport = fault.get();
    client.emplace(
        net::SeeSawClient::Create(std::move(fault), std::move(options)));
  }
  // The handler and sleep hook hold `this`.
  ScriptedClient(const ScriptedClient&) = delete;
  ScriptedClient& operator=(const ScriptedClient&) = delete;

  SessionPeer peer;
  std::vector<double> sleeps;
  FaultTransport* transport = nullptr;  // owned by the client
  std::optional<net::SeeSawClient> client;
};

core::ImageFeedback Feedback() {
  core::ImageFeedback fb;
  fb.image_idx = 3;
  fb.relevant = true;
  return fb;
}

TEST(SeeSawClientFaults, RetryLaterTwiceThenSucceeds) {
  ScriptedClient fx({RetryLater(), RetryLater(), Pass()});
  auto batch = fx.client->NextBatch(kSessionId, 4);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 4u);
  EXPECT_EQ(fx.client->retries(), 2u);
  EXPECT_EQ(fx.client->last_wire_error(), net::WireError::kNone);
  EXPECT_EQ(fx.transport->sends(), 3u);
  // Two virtual backoff sleeps, the second drawn from a doubled base.
  net::RpcOptions defaults;
  ASSERT_EQ(fx.sleeps.size(), 2u);
  EXPECT_GE(fx.sleeps[0], 0.5 * defaults.backoff_initial_seconds);
  EXPECT_LT(fx.sleeps[0], defaults.backoff_initial_seconds);
  EXPECT_GE(fx.sleeps[1], defaults.backoff_initial_seconds);
  EXPECT_LT(fx.sleeps[1], 2 * defaults.backoff_initial_seconds);
  EXPECT_EQ(fx.transport->virtual_now(), 0.0);
}

TEST(SeeSawClientFaults, QuotaExceededIsNotRetried) {
  ScriptedClient fx({});
  auto id = fx.client->CreateSession("car", kOverQuotaUser);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fx.client->last_wire_error(), net::WireError::kQuotaExceeded);
  EXPECT_EQ(fx.transport->sends(), 1u);
  EXPECT_EQ(fx.client->retries(), 0u);
  EXPECT_TRUE(fx.sleeps.empty());
}

// AddFeedback mutates the session, so a reply lost to a dead connection is
// not resent: the server may already have applied it. The failed call
// leaves the stream broken and the next call reconnects before it sends.
TEST(SeeSawClientFaults, SessionFrameIsNotResentAfterIoFailure) {
  for (FaultStep fault : {Drop(), Truncate()}) {
    ScriptedClient fx({Pass(), fault});
    ASSERT_TRUE(fx.client->CreateSession("car").ok());
    ASSERT_EQ(fx.transport->sends(), 1u);

    Status s = fx.client->AddFeedback(kSessionId, Feedback());
    EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
    EXPECT_EQ(fx.transport->sends(), 2u);  // the one attempt, no resend
    EXPECT_EQ(fx.client->retries(), 0u);
    EXPECT_TRUE(fx.sleeps.empty());
    EXPECT_EQ(fx.transport->reconnects(), 0u);

    EXPECT_TRUE(fx.client->Refit(kSessionId).ok());
    EXPECT_EQ(fx.transport->reconnects(), 1u);
    EXPECT_EQ(fx.transport->sends(), 3u);
    EXPECT_EQ(fx.transport->steps_left(), 0u);
  }
}

// Ping reads no session state, so the same IO failure reconnects and
// resends it within the call.
TEST(SeeSawClientFaults, IdempotentPingIsResentAfterIoFailure) {
  ScriptedClient fx({Drop(), Pass()});
  EXPECT_TRUE(fx.client->Ping().ok());
  EXPECT_EQ(fx.transport->reconnects(), 1u);
  EXPECT_EQ(fx.transport->sends(), 2u);
  EXPECT_EQ(fx.client->retries(), 1u);
}

TEST(SeeSawClientFaults, StaleDuplicateReplyIsSkipped) {
  ScriptedClient fx({Pass(), Duplicate()});
  ASSERT_TRUE(fx.client->CreateSession("car").ok());
  // The peer sends the NextBatch reply twice, first under the previous
  // call's id: that stale frame is skipped, the real one consumed.
  auto batch = fx.client->NextBatch(kSessionId, 3);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->size(), 3u);
  EXPECT_EQ(fx.transport->sends(), 2u);
  EXPECT_EQ(fx.client->retries(), 0u);
}

TEST(SeeSawClientFaults, DeadlineExpiryIsTypedAndNotResent) {
  net::RpcOptions options;
  options.request_deadline_seconds = 1.0;
  ScriptedClient fx({Delay(10.0)}, options);
  auto batch = fx.client->NextBatch(kSessionId, 3);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsDeadlineExceeded())
      << batch.status().ToString();
  EXPECT_EQ(fx.transport->sends(), 1u);
  EXPECT_EQ(fx.client->retries(), 0u);
  EXPECT_TRUE(fx.sleeps.empty());
  EXPECT_LE(fx.transport->virtual_now(), 1.0);
  // The late reply is torn up with the stream; the next call reconnects.
  EXPECT_TRUE(fx.client->Ping().ok());
  EXPECT_EQ(fx.transport->reconnects(), 1u);
}

TEST(SeeSawClientFaults, LastWireErrorTracksTheCurrentCall) {
  net::RpcOptions options;
  options.max_retries = 2;
  ScriptedClient fx({RetryLater(), RetryLater(), RetryLater(), Drop()},
                    options);
  auto batch = fx.client->NextBatch(kSessionId, 3);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(batch.status().message().find("retries exhausted"),
            std::string::npos);
  EXPECT_EQ(fx.client->last_wire_error(), net::WireError::kRetryLater);
  EXPECT_EQ(fx.client->retries(), 2u);

  // An IO failure carries no wire code: the previous call's code is gone.
  Status s = fx.client->AddFeedback(kSessionId, Feedback());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(fx.client->last_wire_error(), net::WireError::kNone);
  EXPECT_EQ(fx.peer.feedback_applied, 0u);
}

// n crosses the wire as a u32: a wider n is rejected before anything is
// sent, where a bare cast would have silently asked for n mod 2^32.
TEST(SeeSawClientFaults, NextBatchBeyondWireWidthIsInvalidArgument) {
  ScriptedClient fx({});
  auto batch = fx.client->NextBatch(kSessionId, (size_t{1} << 32) + 3);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(fx.transport->sends(), 0u);
}

}  // namespace
}  // namespace seesaw
