// Readiness notification for the event loop: epoll(7), level-triggered,
// one syscall per wait regardless of fd count. The runtime is Linux-only
// (it also relies on SO_REUSEPORT, MSG_NOSIGNAL and MSG_PEEK).
#pragma once

#include <vector>

namespace idicn::runtime {

/// One ready fd from a wait() call.
struct Ready {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  ///< EPOLLERR/EPOLLHUP-class condition
};

class Poller {
public:
  /// Throws std::runtime_error when epoll_create1 fails.
  Poller();
  ~Poller();

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool add(int fd, bool want_read, bool want_write);
  bool modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = forever, 0 = poll) and append ready
  /// fds to `out`. Returns the number appended, 0 on timeout, -1 on error.
  int wait(int timeout_ms, std::vector<Ready>& out);

private:
  int epfd_ = -1;
};

}  // namespace idicn::runtime
