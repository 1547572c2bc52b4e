// Wire-protocol codec tests: round trips for every message type, header
// framing, and fuzz-style robustness — truncations, bit flips, and random
// garbage must fail decode cleanly (return false), never crash or read out
// of bounds. The codecs are pure bytes<->structs (no sockets), so this
// suite runs everywhere, including under ASan where an overread would trip.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace seesaw::net {
namespace {

CreateSessionRequest SampleCreate() {
  CreateSessionRequest req;
  req.user = "alice";
  req.by_vector = false;
  req.text_query = "wheelchair";
  return req;
}

TEST(WireHeaderTest, RoundTrip) {
  std::string frame = EncodeFrame(FrameType::kNextBatch, 42, "abc");
  ASSERT_EQ(frame.size(), kHeaderBytes + 3);
  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame, &header));
  EXPECT_EQ(header.version, kProtocolVersion);
  EXPECT_EQ(header.type, FrameType::kNextBatch);
  EXPECT_EQ(header.request_id, 42u);
  EXPECT_EQ(header.payload_len, 3u);
}

TEST(WireHeaderTest, ShortBufferFails) {
  std::string frame = EncodeFrame(FrameType::kPing, 1, "");
  FrameHeader header;
  for (size_t len = 0; len < kHeaderBytes; ++len) {
    EXPECT_FALSE(DecodeHeader(std::string_view(frame).substr(0, len), &header))
        << "accepted a " << len << "-byte header";
  }
}

TEST(WireHeaderTest, BadMagicFails) {
  std::string frame = EncodeFrame(FrameType::kPing, 1, "");
  frame[0] ^= 0x5A;
  FrameHeader header;
  EXPECT_FALSE(DecodeHeader(frame, &header));
}

TEST(WireHeaderTest, ReplyBitConvention) {
  EXPECT_EQ(static_cast<uint16_t>(FrameType::kNextBatchReply),
            static_cast<uint16_t>(FrameType::kNextBatch) | kReplyBit);
  EXPECT_EQ(static_cast<uint16_t>(FrameType::kCreateSessionReply),
            static_cast<uint16_t>(FrameType::kCreateSession) | kReplyBit);
  EXPECT_EQ(static_cast<uint16_t>(FrameType::kStoreInfoReply),
            static_cast<uint16_t>(FrameType::kStoreInfo) | kReplyBit);
  EXPECT_EQ(static_cast<uint16_t>(FrameType::kStoreTopKBatchReply),
            static_cast<uint16_t>(FrameType::kStoreTopKBatch) | kReplyBit);
  EXPECT_EQ(static_cast<uint16_t>(FrameType::kStoreGetVectorReply),
            static_cast<uint16_t>(FrameType::kStoreGetVector) | kReplyBit);
}

TEST(WireCodecTest, CreateSessionTextRoundTrip) {
  CreateSessionRequest req = SampleCreate();
  CreateSessionRequest got;
  ASSERT_TRUE(DecodeCreateSessionRequest(EncodeCreateSessionRequest(req),
                                         &got));
  EXPECT_EQ(got.user, "alice");
  EXPECT_FALSE(got.by_vector);
  EXPECT_EQ(got.text_query, "wheelchair");
  EXPECT_TRUE(got.query_vector.empty());
}

TEST(WireCodecTest, CreateSessionVectorRoundTripBitwise) {
  CreateSessionRequest req;
  req.by_vector = true;
  req.query_vector = {0.25f, -1.5f, 3.14159f, 0.0f, -0.0f};
  CreateSessionRequest got;
  ASSERT_TRUE(DecodeCreateSessionRequest(EncodeCreateSessionRequest(req),
                                         &got));
  ASSERT_EQ(got.query_vector.size(), req.query_vector.size());
  // Floats cross the wire bitwise — scores and queries survive exactly.
  for (size_t i = 0; i < req.query_vector.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got.query_vector[i], &req.query_vector[i],
                          sizeof(float)),
              0);
  }
}

TEST(WireCodecTest, NextBatchRoundTrip) {
  NextBatchRequest req;
  req.session_id = 0xDEADBEEFCAFEF00Dull;
  req.n = 10;
  NextBatchRequest got;
  ASSERT_TRUE(DecodeNextBatchRequest(EncodeNextBatchRequest(req), &got));
  EXPECT_EQ(got.session_id, req.session_id);
  EXPECT_EQ(got.n, 10u);

  NextBatchReply reply;
  reply.batch = {{7, 0.5f}, {11, -0.25f}, {0, 1.0f}};
  NextBatchReply reply_got;
  ASSERT_TRUE(DecodeNextBatchReply(EncodeNextBatchReply(reply), &reply_got));
  ASSERT_EQ(reply_got.batch.size(), 3u);
  for (size_t i = 0; i < reply.batch.size(); ++i) {
    EXPECT_EQ(reply_got.batch[i].image_idx, reply.batch[i].image_idx);
    EXPECT_EQ(std::memcmp(&reply_got.batch[i].score, &reply.batch[i].score,
                          sizeof(float)),
              0);
  }
}

TEST(WireCodecTest, AddFeedbackRoundTrip) {
  AddFeedbackRequest req;
  req.session_id = 3;
  req.feedback.image_idx = 99;
  req.feedback.relevant = true;
  req.feedback.boxes = {{0.1f, 0.2f, 0.8f, 0.9f}, {0.0f, 0.0f, 0.5f, 0.5f}};
  AddFeedbackRequest got;
  ASSERT_TRUE(DecodeAddFeedbackRequest(EncodeAddFeedbackRequest(req), &got));
  EXPECT_EQ(got.session_id, 3u);
  EXPECT_EQ(got.feedback.image_idx, 99u);
  EXPECT_TRUE(got.feedback.relevant);
  ASSERT_EQ(got.feedback.boxes.size(), 2u);
  EXPECT_FLOAT_EQ(got.feedback.boxes[0].x0, 0.1f);
  EXPECT_FLOAT_EQ(got.feedback.boxes[1].y1, 0.5f);
}

TEST(WireCodecTest, SessionAndErrorRoundTrip) {
  SessionRequest req;
  req.session_id = 17;
  SessionRequest got;
  ASSERT_TRUE(DecodeSessionRequest(EncodeSessionRequest(req), &got));
  EXPECT_EQ(got.session_id, 17u);

  ErrorReply error;
  error.code = WireError::kRetryLater;
  error.message = "request queue full";
  ErrorReply error_got;
  ASSERT_TRUE(DecodeErrorReply(EncodeErrorReply(error), &error_got));
  EXPECT_EQ(error_got.code, WireError::kRetryLater);
  EXPECT_EQ(error_got.message, "request queue full");
}

TEST(WireCodecTest, ErrorNamesAndRetriability) {
  EXPECT_EQ(WireErrorName(WireError::kRetryLater), "RETRY_LATER");
  EXPECT_EQ(WireErrorName(WireError::kQuotaExceeded), "QUOTA_EXCEEDED");
  EXPECT_TRUE(IsRetriable(WireError::kRetryLater));
  EXPECT_FALSE(IsRetriable(WireError::kQuotaExceeded));
  EXPECT_FALSE(IsRetriable(WireError::kMalformedFrame));
}

store::SeenSet SampleSeen() {
  // 130 ids spans three words, with marks in every word including the
  // partial tail — the shape a sharded scan's sliced exclusions take.
  store::SeenSet seen(130);
  seen.Set(0);
  seen.Set(63);
  seen.Set(64);
  seen.Set(129);
  return seen;
}

TEST(WireStoreCodecTest, StoreInfoReplyRoundTrip) {
  StoreInfoReply reply;
  reply.size = 0x1234567890ULL;
  reply.dim = 768;
  StoreInfoReply got;
  ASSERT_TRUE(DecodeStoreInfoReply(EncodeStoreInfoReply(reply), &got));
  EXPECT_EQ(got.size, reply.size);
  EXPECT_EQ(got.dim, 768u);
}

TEST(WireStoreCodecTest, StoreTopKBatchRoundTripBitwise) {
  StoreTopKBatchRequest req;
  req.queries = {{0.25f, -1.5f, 3.14159f, -0.0f}, {-3.0f, 0.5f}, {0.0f}};
  req.k = 17;
  req.seen = SampleSeen();
  StoreTopKBatchRequest got;
  ASSERT_TRUE(
      DecodeStoreTopKBatchRequest(EncodeStoreTopKBatchRequest(req), &got));
  ASSERT_EQ(got.queries.size(), 3u);
  for (size_t q = 0; q < req.queries.size(); ++q) {
    ASSERT_EQ(got.queries[q].size(), req.queries[q].size());
    for (size_t i = 0; i < req.queries[q].size(); ++i) {
      EXPECT_EQ(std::memcmp(&got.queries[q][i], &req.queries[q][i],
                            sizeof(float)),
                0);
    }
  }
  EXPECT_EQ(got.k, 17u);
  EXPECT_TRUE(got.seen == req.seen);

  // The reply preserves result order and score bits verbatim — the remote
  // parity contract needs the wire to be order- and bit-transparent.
  StoreTopKBatchReply reply;
  reply.results = {{{9, 0.75f}, {2, 0.75f}, {31, -0.0f}}, {},
                   {{2, 0.25f}, {3, 0.125f}}};
  StoreTopKBatchReply reply_got;
  ASSERT_TRUE(
      DecodeStoreTopKBatchReply(EncodeStoreTopKBatchReply(reply), &reply_got));
  ASSERT_EQ(reply_got.results.size(), 3u);
  EXPECT_TRUE(reply_got.results[1].empty());  // empty per-query lists survive
  for (size_t q = 0; q < reply.results.size(); ++q) {
    ASSERT_EQ(reply_got.results[q].size(), reply.results[q].size());
    for (size_t i = 0; i < reply.results[q].size(); ++i) {
      EXPECT_EQ(reply_got.results[q][i].id, reply.results[q][i].id);
      EXPECT_EQ(std::memcmp(&reply_got.results[q][i].score,
                            &reply.results[q][i].score, sizeof(float)),
                0);
    }
  }
}

TEST(WireStoreCodecTest, StoreGetVectorRoundTrip) {
  StoreGetVectorRequest req;
  req.id = 4096;
  StoreGetVectorRequest got;
  ASSERT_TRUE(
      DecodeStoreGetVectorRequest(EncodeStoreGetVectorRequest(req), &got));
  EXPECT_EQ(got.id, 4096u);

  StoreGetVectorReply reply;
  reply.vector = {0.1f, -0.2f, 0.3f};
  StoreGetVectorReply reply_got;
  ASSERT_TRUE(
      DecodeStoreGetVectorReply(EncodeStoreGetVectorReply(reply), &reply_got));
  ASSERT_EQ(reply_got.vector.size(), 3u);
  for (size_t i = 0; i < reply.vector.size(); ++i) {
    EXPECT_EQ(std::memcmp(&reply_got.vector[i], &reply.vector[i],
                          sizeof(float)),
              0);
  }
}

TEST(WireStoreCodecTest, EmptySeenSetAndZeroQueriesRoundTrip) {
  // Degenerate-but-legal shapes: no exclusions, an empty batch.
  StoreTopKBatchRequest req;
  req.queries = {{1.0f}};
  req.k = 1;
  StoreTopKBatchRequest got;
  ASSERT_TRUE(
      DecodeStoreTopKBatchRequest(EncodeStoreTopKBatchRequest(req), &got));
  EXPECT_EQ(got.seen.capacity(), 0u);

  StoreTopKBatchRequest batch;
  batch.k = 3;
  StoreTopKBatchRequest batch_got;
  ASSERT_TRUE(
      DecodeStoreTopKBatchRequest(EncodeStoreTopKBatchRequest(batch),
                                  &batch_got));
  EXPECT_TRUE(batch_got.queries.empty());
}

TEST(WireCodecTest, TrailingGarbageRejected) {
  // Decoders require exact consumption: framing bugs must not pass silently.
  std::string payload = EncodeSessionRequest({17});
  payload.push_back('\0');
  SessionRequest got;
  EXPECT_FALSE(DecodeSessionRequest(payload, &got));
}

TEST(WireCodecTest, EveryTruncationFailsCleanly) {
  // Each payload is checked against its OWN decoder: a truncated prefix of
  // one message type may legally decode as a shorter message type (the
  // header's type field is what disambiguates on the wire), but it must
  // never decode as the type it was truncated from.
  struct Case {
    std::string payload;
    bool (*decode)(std::string_view);
  };
  std::vector<Case> cases = {
      {EncodeCreateSessionRequest(SampleCreate()),
       [](std::string_view p) {
         CreateSessionRequest m;
         return DecodeCreateSessionRequest(p, &m);
       }},
      {EncodeNextBatchRequest({5, 10}),
       [](std::string_view p) {
         NextBatchRequest m;
         return DecodeNextBatchRequest(p, &m);
       }},
      {EncodeNextBatchReply({{{1, 0.5f}, {2, 0.25f}}}),
       [](std::string_view p) {
         NextBatchReply m;
         return DecodeNextBatchReply(p, &m);
       }},
      {EncodeAddFeedbackRequest({4, {7, true, {{0.1f, 0.1f, 0.9f, 0.9f}}}}),
       [](std::string_view p) {
         AddFeedbackRequest m;
         return DecodeAddFeedbackRequest(p, &m);
       }},
      {EncodeSessionRequest({9}),
       [](std::string_view p) {
         SessionRequest m;
         return DecodeSessionRequest(p, &m);
       }},
      {EncodeErrorReply({WireError::kInternal, "boom"}),
       [](std::string_view p) {
         ErrorReply m;
         return DecodeErrorReply(p, &m);
       }},
      {EncodeStoreInfoReply({12345, 64}),
       [](std::string_view p) {
         StoreInfoReply m;
         return DecodeStoreInfoReply(p, &m);
       }},
      {EncodeStoreTopKBatchRequest(
           {{{1.0f, 2.0f}, {3.0f, 4.0f}}, 5, SampleSeen()}),
       [](std::string_view p) {
         StoreTopKBatchRequest m;
         return DecodeStoreTopKBatchRequest(p, &m);
       }},
      {EncodeStoreTopKBatchReply({{{{1, 0.5f}}, {{2, 0.25f}, {3, 0.1f}}}}),
       [](std::string_view p) {
         StoreTopKBatchReply m;
         return DecodeStoreTopKBatchReply(p, &m);
       }},
      {EncodeStoreGetVectorRequest({42}),
       [](std::string_view p) {
         StoreGetVectorRequest m;
         return DecodeStoreGetVectorRequest(p, &m);
       }},
      {EncodeStoreGetVectorReply({{0.1f, 0.2f, 0.3f}}),
       [](std::string_view p) {
         StoreGetVectorReply m;
         return DecodeStoreGetVectorReply(p, &m);
       }},
  };
  for (const Case& c : cases) {
    for (size_t len = 0; len < c.payload.size(); ++len) {
      EXPECT_FALSE(c.decode(std::string_view(c.payload.data(), len)))
          << "decoder accepted a " << len << "-byte truncation of a "
          << c.payload.size() << "-byte payload";
    }
  }
}

// Seeded pseudo-fuzz: random garbage and randomly corrupted valid payloads
// through every decoder. The only acceptable outcomes are clean false or a
// successfully decoded struct — never a crash, hang, or overread (ASan leg
// checks the latter).
TEST(WireFuzzTest, RandomGarbageNeverCrashes) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len_dist(0, 512);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes(len_dist(rng), '\0');
    for (char& c : bytes) c = static_cast<char>(byte(rng));
    CreateSessionRequest a;
    NextBatchRequest b;
    NextBatchReply c;
    AddFeedbackRequest d;
    SessionRequest e;
    ErrorReply f;
    FrameHeader h;
    DecodeCreateSessionRequest(bytes, &a);
    DecodeNextBatchRequest(bytes, &b);
    DecodeNextBatchReply(bytes, &c);
    DecodeAddFeedbackRequest(bytes, &d);
    DecodeSessionRequest(bytes, &e);
    DecodeErrorReply(bytes, &f);
    DecodeHeader(bytes, &h);
    StoreInfoReply si;
    StoreTopKBatchRequest sb;
    StoreTopKBatchReply sbr;
    StoreGetVectorRequest sg;
    StoreGetVectorReply sgr;
    DecodeStoreInfoReply(bytes, &si);
    DecodeStoreTopKBatchRequest(bytes, &sb);
    DecodeStoreTopKBatchReply(bytes, &sbr);
    DecodeStoreGetVectorRequest(bytes, &sg);
    DecodeStoreGetVectorReply(bytes, &sgr);
  }
}

TEST(WireFuzzTest, CorruptedValidPayloadsNeverCrash) {
  std::mt19937 rng(5678);
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::string> seeds = {
      EncodeCreateSessionRequest(SampleCreate()),
      EncodeNextBatchReply({{{1, 0.5f}, {2, 0.25f}, {3, 0.125f}}}),
      EncodeAddFeedbackRequest(
          {4, {7, true, {{0.1f, 0.1f, 0.9f, 0.9f}}}}),
      EncodeErrorReply({WireError::kRetryLater, "shed"}),
      EncodeStoreTopKBatchRequest(
          {{{1.0f, 2.0f}, {3.0f, 4.0f}}, 5, SampleSeen()}),
      EncodeStoreTopKBatchReply({{{{1, 0.5f}}, {{2, 0.25f}, {3, 0.1f}}}}),
      EncodeStoreGetVectorReply({{0.1f, 0.2f, 0.3f}}),
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes = seeds[iter % seeds.size()];
    std::uniform_int_distribution<size_t> pos(0, bytes.size() - 1);
    // Corrupt 1-4 bytes; length-prefix corruption is the interesting case
    // (huge counts must hit the sanity caps, not an allocation bomb).
    int flips = 1 + iter % 4;
    for (int i = 0; i < flips; ++i) {
      bytes[pos(rng)] = static_cast<char>(byte(rng));
    }
    CreateSessionRequest a;
    NextBatchReply c;
    AddFeedbackRequest d;
    ErrorReply f;
    DecodeCreateSessionRequest(bytes, &a);
    DecodeNextBatchReply(bytes, &c);
    DecodeAddFeedbackRequest(bytes, &d);
    DecodeErrorReply(bytes, &f);
    StoreTopKBatchRequest sb;
    StoreTopKBatchReply sbr;
    StoreGetVectorReply sgr;
    DecodeStoreTopKBatchRequest(bytes, &sb);
    DecodeStoreTopKBatchReply(bytes, &sbr);
    DecodeStoreGetVectorReply(bytes, &sgr);
  }
}

TEST(WireFuzzTest, LengthPrefixBombRejected) {
  // A payload whose string length prefix claims ~4GB must fail decode (the
  // sanity cap), not allocate.
  WireWriter w;
  w.Str("alice");
  w.U8(0);
  w.U32(0xFFFFFFFFu);  // text_query length prefix: absurd
  CreateSessionRequest got;
  EXPECT_FALSE(DecodeCreateSessionRequest(w.bytes(), &got));
}

TEST(WireFuzzTest, StoreLengthPrefixBombsRejected) {
  // Hostile length prefixes in the store frames must fail the bounds check
  // (the prefix exceeds the bytes actually present) or the sanity cap —
  // never size an allocation.
  {
    // Query vector claiming 1M dims with 8 bytes of payload behind it.
    WireWriter w;
    w.U32(1);  // one query...
    w.U32(1u << 20);
    w.F32(1.0f);
    w.F32(2.0f);
    StoreTopKBatchRequest got;
    EXPECT_FALSE(DecodeStoreTopKBatchRequest(w.bytes(), &got));
  }
  {
    // Seen set claiming ~2^40 capacity: over the cap outright.
    WireWriter w;
    w.U32(1);  // one query...
    w.U32(1);  // ...of one dim
    w.F32(1.0f);
    w.U32(5);            // k
    w.U64(1ull << 40);   // seen capacity: absurd
    StoreTopKBatchRequest got;
    EXPECT_FALSE(DecodeStoreTopKBatchRequest(w.bytes(), &got));
  }
  {
    // Seen set within the cap but with no words behind the prefix: the
    // bounds pre-check must reject before allocating ~16MB of words.
    WireWriter w;
    w.U32(1);
    w.U32(1);
    w.F32(1.0f);
    w.U32(5);
    w.U64(1ull << 27);  // exactly the cap, zero payload bytes follow
    StoreTopKBatchRequest got;
    EXPECT_FALSE(DecodeStoreTopKBatchRequest(w.bytes(), &got));
  }
  {
    // Batch claiming 2^31 queries: over kMaxStoreQueries.
    WireWriter w;
    w.U32(0x80000000u);
    StoreTopKBatchRequest got;
    EXPECT_FALSE(DecodeStoreTopKBatchRequest(w.bytes(), &got));
  }
  {
    // Batch reply claiming 4096 result lists with nothing behind them.
    WireWriter w;
    w.U32(4096);
    StoreTopKBatchReply got;
    EXPECT_FALSE(DecodeStoreTopKBatchReply(w.bytes(), &got));
  }
  {
    // Result list claiming 1M hits backed by one real entry.
    WireWriter w;
    w.U32(1);  // one result list...
    w.U32(1u << 20);
    w.U32(1);
    w.F32(0.5f);
    StoreTopKBatchReply got;
    EXPECT_FALSE(DecodeStoreTopKBatchReply(w.bytes(), &got));
  }
}

}  // namespace
}  // namespace seesaw::net
