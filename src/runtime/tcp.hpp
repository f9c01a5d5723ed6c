// Thin POSIX TCP helpers for the runtime: RAII fds (ScopedFd), non-blocking
// setup, loopback listeners with ephemeral-port support (listen_tcp), and
// the non-blocking connect every client dials with.
// Everything returns errors by value — the runtime treats socket failures
// as data, not exceptions.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace idicn::runtime {

/// Move-only owning file descriptor.
class ScopedFd {
public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { reset(); }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1);

private:
  int fd_ = -1;
};

bool set_nonblocking(int fd);
bool set_nodelay(int fd);

/// Extra listener behavior for listen_tcp().
struct ListenOptions {
  /// Set SO_REUSEPORT before bind so several sockets (one per reactor
  /// worker) can share one port and let the kernel load-balance accepted
  /// connections across them. The runtime is Linux-only, so the option
  /// always exists; a socket without it keeps the port to itself.
  bool reuseport = false;
};

/// Create a listening TCP socket bound to 127.0.0.1:`port` (0 = kernel
/// picks an ephemeral port). On success returns the fd (non-blocking,
/// SO_REUSEADDR) and stores the bound port; on failure returns -1 and
/// stores a reason in `error` when non-null.
int listen_tcp(std::uint16_t port, std::uint16_t* bound_port, std::string* error,
               const ListenOptions& options = {});

/// Start a non-blocking connect to `host`:`port` and return the fd with
/// the connect possibly still in progress (EINPROGRESS is success). The
/// caller watches the fd for writability and then checks SO_ERROR to
/// learn the outcome; the fd stays non-blocking. -1 on immediate failure
/// (reason in `error` when non-null).
int connect_tcp_nonblocking(const std::string& host, std::uint16_t port,
                            std::string* error);

}  // namespace idicn::runtime
