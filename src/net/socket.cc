#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/stopwatch.h"

namespace seesaw::net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

StatusOr<Fd> ListenTcp(const std::string& address, uint16_t port,
                       int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 bind address: " + address);
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(fd.get(), backlog) < 0) return Errno("listen");
  return fd;
}

StatusOr<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

StatusOr<Fd> ConnectTcp(const std::string& host, uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 host address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return Errno("connect");
  SEESAW_RETURN_IF_ERROR(SetNoDelay(fd.get()));
  return fd;
}

Status WriteAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadExactlyWithin(int fd, size_t n, std::string* out,
                         double deadline_seconds,
                         const CancellationToken* cancel) {
  // Slice the poll() wait so cancellation and the deadline are observed
  // promptly; 50ms bounds the reaction latency without busy-spinning.
  constexpr int kSliceMillis = 50;
  Stopwatch clock;
  size_t start = out->size();
  out->resize(start + n);
  size_t off = 0;
  while (off < n) {
    if (cancel != nullptr && cancel->cancelled()) {
      out->resize(start + off);
      return Status::Cancelled("read cancelled");
    }
    double left = deadline_seconds - clock.ElapsedSeconds();
    if (deadline_seconds > 0 && left <= 0) {
      out->resize(start + off);
      return Status::DeadlineExceeded("read deadline exceeded");
    }
    int wait = kSliceMillis;
    if (deadline_seconds > 0) {
      wait = std::min<int>(wait, static_cast<int>(left * 1e3) + 1);
    }
    pollfd p{fd, POLLIN, 0};
    int rc = ::poll(&p, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      out->resize(start + off);
      return Errno("poll");
    }
    if (rc == 0) continue;  // slice elapsed; re-check cancel and deadline
    ssize_t got =
        ::recv(fd, out->data() + start + off, n - off, MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      out->resize(start + off);
      return Errno("recv");
    }
    if (got == 0) {
      out->resize(start + off);
      return Status::IoError("connection closed mid-frame");
    }
    off += static_cast<size_t>(got);
  }
  return Status::OK();
}

StatusOr<WakePipe> WakePipe::Create() {
  int fds[2];
  if (::pipe(fds) < 0) return Errno("pipe");
  Fd read_end(fds[0]);
  Fd write_end(fds[1]);
  SEESAW_RETURN_IF_ERROR(SetNonBlocking(read_end.get()));
  SEESAW_RETURN_IF_ERROR(SetNonBlocking(write_end.get()));
  return WakePipe(std::move(read_end), std::move(write_end));
}

void WakePipe::Wake() const {
  char byte = 1;
  // EAGAIN means the pipe is already full of wake bytes — the loop has a
  // wakeup pending, which is all Wake() promises.
  [[maybe_unused]] ssize_t n = ::write(write_end_.get(), &byte, 1);
}

void WakePipe::Drain() const {
  char buf[256];
  while (::read(read_end_.get(), buf, sizeof(buf)) > 0) {
  }
}

size_t RaiseFdLimit(size_t want) {
  struct rlimit lim;
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur != RLIM_INFINITY && lim.rlim_cur < want) {
    rlim_t target = want;
    if (lim.rlim_max != RLIM_INFINITY && target > lim.rlim_max) {
      target = lim.rlim_max;
    }
    lim.rlim_cur = target;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return lim.rlim_cur == RLIM_INFINITY ? static_cast<size_t>(-1)
                                       : static_cast<size_t>(lim.rlim_cur);
}

}  // namespace seesaw::net
