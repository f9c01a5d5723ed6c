#include "runtime/poller.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace idicn::runtime {
namespace {

epoll_event make_event(int fd, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.data.fd = fd;
  if (want_read) ev.events |= EPOLLIN;
  if (want_write) ev.events |= EPOLLOUT;
  return ev;
}

}  // namespace

Poller::Poller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  if (epfd_ < 0) throw std::runtime_error("Poller: epoll_create1 failed");
}

Poller::~Poller() { ::close(epfd_); }

bool Poller::add(int fd, bool want_read, bool want_write) {
  epoll_event ev = make_event(fd, want_read, want_write);
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Poller::modify(int fd, bool want_read, bool want_write) {
  epoll_event ev = make_event(fd, want_read, want_write);
  return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Poller::remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

int Poller::wait(int timeout_ms, std::vector<Ready>& out) {
  epoll_event events[128];
  const int n = ::epoll_wait(epfd_, events, 128, timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Ready ready;
    ready.fd = events[i].data.fd;
    ready.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
    ready.writable = (events[i].events & EPOLLOUT) != 0;
    ready.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(ready);
  }
  return n;
}

}  // namespace idicn::runtime
