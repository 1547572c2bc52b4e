// Thin RAII wrappers over the POSIX socket surface the serving front end
// needs: a listener, a connected stream socket, and a self-pipe for waking a
// poll() loop. src/net/ is the only directory allowed to touch raw
// socket/poll syscalls (scripts/check_invariants.py enforces this), so
// server, client, tools and benches all route through these types.
#ifndef SEESAW_NET_SOCKET_H_
#define SEESAW_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/statusor.h"

namespace seesaw::net {

/// Owns one file descriptor; closes it on destruction. Movable, not
/// copyable. -1 means "empty".
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Releases ownership without closing.
  int Release();
  void Close();

 private:
  int fd_ = -1;
};

/// Puts the fd into non-blocking mode.
Status SetNonBlocking(int fd);

/// Disables Nagle's algorithm. Request and reply frames are small (tens of
/// bytes); with Nagle on, a request can sit in the kernel for a delayed-ACK
/// round (~40ms) — fatal to an interactive-latency contract measured in
/// single-digit milliseconds.
Status SetNoDelay(int fd);

/// Creates a TCP listener bound to `address:port` (port 0 = ephemeral) with
/// SO_REUSEADDR, already listening. `backlog` bounds the kernel accept
/// queue — the outermost admission-control stage: past it, SYNs are dropped
/// and clients retry at the TCP layer instead of piling into the server.
StatusOr<Fd> ListenTcp(const std::string& address, uint16_t port,
                       int backlog);

/// The local port a bound socket ended up on (resolves port 0).
StatusOr<uint16_t> LocalPort(int fd);

/// Blocking TCP connect (used by TcpTransport; the server side never
/// connects).
StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port);

/// Writes all of `data`, looping over partial writes and EINTR. Blocking
/// sockets only.
Status WriteAll(int fd, std::string_view data);

/// Reads exactly `n` bytes into `out` (appended), looping over partial reads
/// and EINTR, with a per-call deadline and a cancellation token: the wait is
/// sliced into short poll() intervals so the caller's deadline and token are
/// both observed within ~50ms even when the peer sends nothing. Returns
/// DeadlineExceeded when `deadline_seconds` elapses (measured from the call,
/// <= 0 means no deadline), Cancelled when `cancel` fires (null = not
/// cancellable), IoError on EOF/reset mid-frame. On any failure `out` keeps the
/// bytes read so far appended — the caller abandons the connection either way
/// (the stream cannot be re-synced mid-frame). This is the seam that lets an
/// RpcChannel abandon an in-flight socket wait on cancellation instead of
/// hanging on a dead peer.
Status ReadExactlyWithin(int fd, size_t n, std::string* out,
                         double deadline_seconds,
                         const CancellationToken* cancel);

/// A pipe whose read end a poll() loop watches and whose write end any
/// thread may poke to interrupt the poll (the classic self-pipe trick).
/// Wake() is async-signal-safe, lock-free, and idempotent under saturation
/// (a full pipe already guarantees a pending wakeup).
class WakePipe {
 public:
  static StatusOr<WakePipe> Create();

  int read_fd() const { return read_end_.get(); }
  void Wake() const;
  /// Drains pending wake bytes (called by the loop after poll returns).
  void Drain() const;

 private:
  WakePipe(Fd read_end, Fd write_end)
      : read_end_(std::move(read_end)), write_end_(std::move(write_end)) {}

  Fd read_end_;
  Fd write_end_;
};

/// Raises RLIMIT_NOFILE to at least `want` descriptors (clamped to the hard
/// limit). Thousands of concurrent TCP sessions need more than the
/// customary 1024 soft default; call this before serving or load
/// generation. Returns the resulting soft limit.
size_t RaiseFdLimit(size_t want);

}  // namespace seesaw::net

#endif  // SEESAW_NET_SOCKET_H_
