#include "runtime/event_loop.hpp"

#include <unistd.h>

#include <chrono>
#include <stdexcept>

#include "runtime/tcp.hpp"

namespace idicn::runtime {

EventLoop::EventLoop() {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("EventLoop: pipe failed");
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  set_nonblocking(wake_read_fd_);
  set_nonblocking(wake_write_fd_);
  watch(wake_read_fd_, true, false, [this](bool readable, bool, bool) {
    if (!readable) return;
    char buffer[256];
    while (::read(wake_read_fd_, buffer, sizeof(buffer)) > 0) {
    }
  });
}

EventLoop::~EventLoop() {
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool EventLoop::watch(int fd, bool want_read, bool want_write, IoHandler handler) {
  assert_on_loop_thread();
  if (handlers_.count(fd) != 0) return false;
  if (!poller_.add(fd, want_read, want_write)) return false;
  handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  return true;
}

bool EventLoop::update(int fd, bool want_read, bool want_write) {
  assert_on_loop_thread();
  if (handlers_.count(fd) == 0) return false;
  return poller_.modify(fd, want_read, want_write);
}

void EventLoop::unwatch(int fd) {
  assert_on_loop_thread();
  if (handlers_.erase(fd) != 0) poller_.remove(fd);
}

TimerWheel::TimerId EventLoop::add_timer(std::uint64_t delay_ms,
                                         TimerWheel::Callback callback) {
  assert_on_loop_thread();
  timers_.advance_to(now_ms());
  return timers_.schedule(delay_ms, std::move(callback));
}

bool EventLoop::cancel_timer(TimerWheel::TimerId id) {
  assert_on_loop_thread();
  return timers_.cancel(id);
}

void EventLoop::post(std::function<void()> task) {
  {
    const core::sync::MutexLock lock(tasks_mutex_);
    tasks_.push_back(std::move(task));
  }
  wake();
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  wake();
}

void EventLoop::wake() {
  const char byte = 0;
  [[maybe_unused]] const auto written = ::write(wake_write_fd_, &byte, 1);
}

void EventLoop::drain_tasks() {
  std::vector<std::function<void()>> tasks;
  {
    const core::sync::MutexLock lock(tasks_mutex_);
    tasks.swap(tasks_);
  }
  for (auto& task : tasks) task();
}

std::uint64_t EventLoop::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int EventLoop::next_timeout_ms(int cap_ms) const {
  const auto deadline = timers_.next_deadline_ms();
  if (!deadline) return cap_ms;
  const std::uint64_t now = now_ms();
  if (*deadline <= now) return 0;
  const std::uint64_t wait = *deadline - now;
  return wait < static_cast<std::uint64_t>(cap_ms) ? static_cast<int>(wait) : cap_ms;
}

void EventLoop::run_once(int timeout_ms) {
  assert_on_loop_thread();
  ready_.clear();
  poller_.wait(next_timeout_ms(timeout_ms), ready_);
  // Look handlers up per event: an earlier handler in this batch may have
  // unwatched a later fd, in which case its event must be dropped.
  for (const Ready& event : ready_) {
    const auto it = handlers_.find(event.fd);
    if (it == handlers_.end()) continue;
    const std::shared_ptr<IoHandler> handler = it->second;  // keep alive
    (*handler)(event.readable, event.writable, event.error);
  }
  timers_.advance_to(now_ms());
  drain_tasks();
}

void EventLoop::run() {
  loop_role_.bind();  // the calling thread owns loop state until return
  assert_on_loop_thread();
  while (!stopping_.load(std::memory_order_acquire)) {
    run_once(1000);
  }
  stopping_.store(false, std::memory_order_release);  // allow re-run
  loop_role_.unbind();
}

}  // namespace idicn::runtime
