// SeeSawClient: a synchronous client for the session frames of the SeeSaw
// wire protocol — one connection, one request in flight at a time. This is
// the session-API surface (CreateSession / NextBatch / AddFeedback / Refit /
// CloseSession) a remote driver uses exactly like an in-process
// SeeSawSearcher; the load generator and the serving smoke test drive it.
//
// Each call is one net::RpcChannel round trip (net/rpc_channel.h), so a
// session gets the channel's deadline, RETRY_LATER backoff and reconnect.
// Session frames mutate server state and are never resent after an IO
// failure or a deadline: such a call fails, and the next call reconnects.
//
// Error surface: every call returns the repo's Status, and the wire-level
// error code of the call stays readable via last_wire_error() so callers
// can tell shedding that outlasted the retry budget (RETRY_LATER) from real
// failures. A client instance is NOT thread-safe; give each concurrent
// session its own connection (that is the serving model: one user, one
// connection).
#ifndef SEESAW_NET_CLIENT_H_
#define SEESAW_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/searcher.h"
#include "linalg/vector_ops.h"
#include "net/rpc_channel.h"
#include "net/transport.h"
#include "net/wire.h"

namespace seesaw::net {

class SeeSawClient {
 public:
  /// Blocking TCP connect (IPv4 dotted quad).
  static StatusOr<SeeSawClient> Connect(const std::string& host,
                                        uint16_t port,
                                        RpcOptions options = {});

  /// Seam constructor: any Transport (the fault harness injects scripted
  /// ones).
  static SeeSawClient Create(std::unique_ptr<Transport> transport,
                             RpcOptions options = {});

  SeeSawClient(SeeSawClient&&) = default;
  SeeSawClient& operator=(SeeSawClient&&) = default;

  StatusOr<uint64_t> CreateSession(const std::string& text_query,
                                   const std::string& user = "");
  StatusOr<uint64_t> CreateSessionFromVector(linalg::VectorF query_vector,
                                             const std::string& user = "");
  /// InvalidArgument (nothing sent) when n does not fit the u32 wire field.
  StatusOr<std::vector<core::ScoredImage>> NextBatch(uint64_t session_id,
                                                     size_t n);
  Status AddFeedback(uint64_t session_id,
                     const core::ImageFeedback& feedback);
  Status Refit(uint64_t session_id);
  Status CloseSession(uint64_t session_id);
  Status Ping();

  /// The wire error code of the most recent call: kNone after a success
  /// or a transport failure, kRetryLater when shedding outlasted the retry
  /// budget, the typed code of any other error reply.
  WireError last_wire_error() const { return channel_.last_wire_error(); }

  /// RETRY_LATER and idempotent-frame resends over the client's lifetime.
  uint64_t retries() const { return channel_.retries(); }

 private:
  explicit SeeSawClient(RpcChannel channel) : channel_(std::move(channel)) {}

  RpcChannel channel_;
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_CLIENT_H_
