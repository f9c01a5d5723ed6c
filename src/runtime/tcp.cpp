#include "runtime/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace idicn::runtime {
namespace {

void set_error(std::string* error, const char* where) {
  if (error != nullptr) *error = std::string(where) + ": " + std::strerror(errno);
}

}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool set_nodelay(int fd) {
  const int one = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

int listen_tcp(std::uint16_t port, std::uint16_t* bound_port, std::string* error,
               const ListenOptions& options) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket");
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuseport &&
      ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    set_error(error, "setsockopt(SO_REUSEPORT)");
    return -1;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "bind");
    return -1;
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) {
    set_error(error, "listen");
    return -1;
  }
  if (!set_nonblocking(fd.get())) {
    set_error(error, "fcntl");
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      set_error(error, "getsockname");
      return -1;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd.release();
}

int connect_tcp_nonblocking(const std::string& host, std::uint16_t port,
                            std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "unsupported address (IPv4 literal expected): " + host;
    return -1;
  }

  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    set_error(error, "socket");
    return -1;
  }
  if (!set_nonblocking(fd.get())) {
    set_error(error, "fcntl");
    return -1;
  }
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    set_error(error, "connect");
    return -1;
  }
  return fd.release();
}

}  // namespace idicn::runtime
