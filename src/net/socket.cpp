#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.hpp"

namespace fp::net {

namespace {

constexpr std::uint32_t kMagic = 0x314e5046;  // "FPN1" little-endian
constexpr std::uint64_t kMaxBody = 1ull << 30;  // 1 GiB sanity cap

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t type;
  std::uint64_t body_len;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Resolves host:port and attempts one TCP connect. Returns -1 on failure
/// (caller retries), the connected fd on success.
int try_connect(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0)
    return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  return fd;
}

}  // namespace

TcpConn::TcpConn(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {
  if (fd_ >= 0) set_nodelay(fd_);
}

TcpConn::~TcpConn() { close(); }

TcpConn::TcpConn(TcpConn&& other) noexcept
    : fd_(other.fd_),
      peer_(std::move(other.peer_)),
      tx_bytes_(other.tx_bytes_),
      rx_bytes_(other.rx_bytes_) {
  other.fd_ = -1;
}

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    peer_ = std::move(other.peer_);
    tx_bytes_ = other.tx_bytes_;
    rx_bytes_ = other.rx_bytes_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpConn TcpConn::connect_retry(const std::string& host, int port,
                               double total_s) {
  const double deadline = now_s() + total_s;
  double backoff_s = 0.05;
  for (;;) {
    const int fd = try_connect(host, port);
    if (fd >= 0) return TcpConn(fd, host + ":" + std::to_string(port));
    if (now_s() + backoff_s > deadline)
      throw NetError("connect to " + host + ":" + std::to_string(port) +
                     " failed after " + std::to_string(total_s) + "s");
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s));
    backoff_s = std::min(backoff_s * 2.0, 2.0);
  }
}

void TcpConn::write_all(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the process.
    const ssize_t r = ::send(fd_, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("send to " + peer_);
    }
    sent += static_cast<std::size_t>(r);
  }
  tx_bytes_ += static_cast<std::int64_t>(n);
  static obs::Counter& tx = obs::counter("net.tx_bytes");
  tx.add(static_cast<std::int64_t>(n));
}

void TcpConn::send_frame(std::uint32_t type,
                         const std::vector<std::uint8_t>& body) {
  if (fd_ < 0) throw NetError("send on closed connection to " + peer_);
  FrameHeader hdr{kMagic, type, static_cast<std::uint64_t>(body.size())};
  write_all(&hdr, sizeof(hdr));
  if (!body.empty()) write_all(body.data(), body.size());
}

void TcpConn::send_bytes(const void* data, std::size_t n) {
  if (fd_ < 0) throw NetError("send on closed connection to " + peer_);
  if (n > 0) write_all(data, n);
}

std::ptrdiff_t TcpConn::recv_some(void* buf, std::size_t cap, double timeout_s) {
  if (fd_ < 0) throw NetError("recv on closed connection to " + peer_);
  const double deadline = timeout_s > 0.0 ? now_s() + timeout_s : 0.0;
  for (;;) {
    if (deadline > 0.0) {
      const double left = deadline - now_s();
      if (left <= 0.0) return -1;
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::min(left * 1000.0, 3.6e6)) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll on " + peer_);
      }
      if (ready == 0) continue;  // re-check the deadline
    }
    const ssize_t r = ::recv(fd_, buf, cap, 0);
    if (r == 0) return 0;  // clean EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv from " + peer_);
    }
    rx_bytes_ += static_cast<std::int64_t>(r);
    static obs::Counter& rx = obs::counter("net.rx_bytes");
    rx.add(static_cast<std::int64_t>(r));
    return static_cast<std::ptrdiff_t>(r);
  }
}

void TcpConn::read_all(void* data, std::size_t n, double deadline_s) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < n) {
    if (deadline_s > 0.0) {
      const double left = deadline_s - now_s();
      if (left <= 0.0)
        throw NetError("recv from " + peer_ + " timed out");
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::min(left * 1000.0, 3.6e6)) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll on " + peer_);
      }
      if (ready == 0) continue;  // re-check the deadline
    }
    const ssize_t r = ::recv(fd_, p + got, n - got, 0);
    if (r == 0)
      throw NetError("connection to " + peer_ + " closed mid-frame");
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv from " + peer_);
    }
    got += static_cast<std::size_t>(r);
  }
  rx_bytes_ += static_cast<std::int64_t>(n);
  static obs::Counter& rx = obs::counter("net.rx_bytes");
  rx.add(static_cast<std::int64_t>(n));
}

Frame TcpConn::recv_frame(double timeout_s) {
  if (fd_ < 0) throw NetError("recv on closed connection to " + peer_);
  const double deadline = timeout_s > 0.0 ? now_s() + timeout_s : 0.0;
  FrameHeader hdr{};
  read_all(&hdr, sizeof(hdr), deadline);
  if (hdr.magic != kMagic)
    throw NetError("bad frame magic from " + peer_ +
                   " (protocol mismatch or stream corruption)");
  if (hdr.body_len > kMaxBody)
    throw NetError("oversized frame from " + peer_ + " (" +
                   std::to_string(hdr.body_len) + " bytes)");
  Frame f;
  f.type = hdr.type;
  // Grow with the bytes that arrive, not the peer-declared length: a header
  // promising 1 GiB followed by EOF must not commit 1 GiB. Doubling steps
  // keep the copies linear in the body size.
  const auto len = static_cast<std::size_t>(hdr.body_len);
  constexpr std::size_t kFirstStep = std::size_t{1} << 20;
  while (f.body.size() < len) {
    const std::size_t got = f.body.size();
    const std::size_t step = std::min(len - got, std::max(kFirstStep, got));
    f.body.resize(got + step);
    read_all(f.body.data() + got, step, deadline);
  }
  return f;
}

TcpListener::TcpListener(const std::string& host, int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("listener socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen on " + host + ":" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    port_ = ntohs(bound.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

TcpConn TcpListener::accept(double timeout_s) {
  const double deadline = timeout_s > 0.0 ? now_s() + timeout_s : 0.0;
  for (;;) {
    if (deadline > 0.0) {
      const double left = deadline - now_s();
      if (left <= 0.0) throw NetError("accept timed out");
      pollfd pfd{fd_, POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::min(left * 1000.0, 3.6e6)) + 1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_errno("poll on listener");
      }
      if (ready == 0) continue;
    }
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      throw_errno("accept");
    }
    char buf[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
    return TcpConn(fd, std::string(buf) + ":" +
                           std::to_string(ntohs(addr.sin_port)));
  }
}

}  // namespace fp::net
