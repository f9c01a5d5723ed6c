// Blocking-socket helpers for tests that speak raw TCP to a live server.
// The runtime itself only dials non-blocking (runtime/tcp.hpp); these wait
// a connect out and give a socket send/receive timeouts, so a test that
// reads a reply with plain recv(2) fails instead of hanging.
#pragma once

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "runtime/tcp.hpp"

namespace idicn::runtime {

/// SO_RCVTIMEO + SO_SNDTIMEO for a blocking socket.
inline bool set_io_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0 &&
         ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

/// Blocking connect to `host`:`port` with a timeout: a
/// connect_tcp_nonblocking() waited out with poll(2), then switched back
/// to blocking mode. -1 on failure (reason in `error` when non-null).
inline int connect_tcp(const std::string& host, std::uint16_t port, int timeout_ms,
                       std::string* error) {
  ScopedFd fd(connect_tcp_nonblocking(host, port, error));
  if (!fd.valid()) return -1;
  pollfd pfd{fd.get(), POLLOUT, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) {
    if (error != nullptr) *error = "connect timeout to " + host;
    return -1;
  }
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 || soerr != 0) {
    if (error != nullptr) {
      *error = std::string("connect: ") + std::strerror(soerr != 0 ? soerr : errno);
    }
    return -1;
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    if (error != nullptr) *error = std::string("fcntl: ") + std::strerror(errno);
    return -1;
  }
  return fd.release();
}

}  // namespace idicn::runtime
