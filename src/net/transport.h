// Transport: the byte-stream seam under net::RpcChannel, the one RPC
// client that SeeSawClient and store::RemoteStore are built on.
//
// The channel's semantics (deadlines, retries, reconnects, cancellation)
// are all decisions about *when to stop waiting on a peer* — none of them
// need a real socket to be exercised. This interface isolates exactly the
// three operations the channel performs on a connection, so the
// fault-injection harness (tests/fault_socket.h) can substitute a scripted
// in-process peer with a virtual clock and make every failure path
// deterministic, while production uses TcpTransport over the
// blocking-socket helpers in socket.h.
#ifndef SEESAW_NET_TRANSPORT_H_
#define SEESAW_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/statusor.h"
#include "net/socket.h"
#include "net/wire.h"

namespace seesaw::net {

/// One framed request/reply byte stream to a peer. Not thread-safe: the
/// owning RpcChannel serializes calls.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Writes one whole encoded frame. IoError on a broken connection.
  virtual Status Send(std::string_view frame) = 0;

  /// Reads one whole frame into `header` + `payload` (replaced, not
  /// appended). `deadline_seconds` bounds the whole wait (<= 0 = none);
  /// `cancel` (nullable) aborts it early. Replies claiming more than
  /// `max_payload_bytes` of payload fail with IoError before any payload
  /// allocation — a corrupt or hostile length prefix must not drive a
  /// multi-gigabyte resize. Returns DeadlineExceeded / Cancelled / IoError;
  /// after any failure the stream is mid-frame and unusable until
  /// Reconnect().
  virtual Status ReadFrame(FrameHeader* header, std::string* payload,
                           size_t max_payload_bytes, double deadline_seconds,
                           const CancellationToken* cancel) = 0;

  /// Tears down the current connection (if any) and establishes a fresh
  /// one. Called by RpcChannel before the first send after a failure.
  virtual Status Reconnect() = 0;
};

/// Production transport: a blocking TCP connection (TCP_NODELAY, reads
/// sliced through ReadExactlyWithin so deadlines and cancellation are
/// honored even against a silent peer).
class TcpTransport : public Transport {
 public:
  /// Connects immediately; fails if the peer is unreachable.
  static StatusOr<std::unique_ptr<TcpTransport>> Connect(std::string host,
                                                         uint16_t port);

  Status Send(std::string_view frame) override;
  Status ReadFrame(FrameHeader* header, std::string* payload,
                   size_t max_payload_bytes, double deadline_seconds,
                   const CancellationToken* cancel) override;
  Status Reconnect() override;

 private:
  TcpTransport(std::string host, uint16_t port, Fd sock)
      : host_(std::move(host)), port_(port), sock_(std::move(sock)) {}

  std::string host_;
  uint16_t port_;
  Fd sock_;
};

}  // namespace seesaw::net

#endif  // SEESAW_NET_TRANSPORT_H_
