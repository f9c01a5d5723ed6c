// Single-threaded event loop: epoll readiness dispatch + timer wheel +
// cross-thread task posting via a self-pipe.
//
// One EventLoop per worker thread; all watch/update/unwatch/add_timer
// calls must come from the loop thread (or while the loop is not running,
// e.g. before run() / after stop()+join), while post() and stop() are safe
// from any thread. Handlers run inline on the loop thread and must not
// block — the runtime's contract is the paper's prototype contract: one
// proxy worker is one single-threaded process.
//
// The ownership discipline is machine-checked (see src/core/sync.hpp and
// DESIGN.md §"Threading model"): loop-owned state is IDICN_GUARDED_BY the
// `loop_role_` thread role, every public loop-thread-only entry point
// asserts the role (debug builds abort when called off-thread while the
// loop runs; Clang's -Wthread-safety enforces it statically), and the
// cross-thread task queue is the only mutex-guarded state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "net/transport.hpp"
#include "runtime/poller.hpp"
#include "runtime/timer_wheel.hpp"

namespace idicn::runtime {

class EventLoop : public net::Executor {
 public:
  /// Called with the fd's readiness; `error` implies the peer hung up or
  /// the fd failed — the handler should unwatch and close.
  using IoHandler = std::function<void(bool readable, bool writable, bool error)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- fd readiness (loop thread only) ---------------------------------
  bool watch(int fd, bool want_read, bool want_write, IoHandler handler);
  bool update(int fd, bool want_read, bool want_write);
  void unwatch(int fd);

  // --- timers (loop thread only) ---------------------------------------
  TimerWheel::TimerId add_timer(std::uint64_t delay_ms,
                                TimerWheel::Callback callback);
  bool cancel_timer(TimerWheel::TimerId id);

  // --- cross-thread ----------------------------------------------------
  /// Queue `task` for execution on the loop thread; wakes the loop.
  void post(std::function<void()> task);
  /// Ask run() to return after the current iteration; safe from any thread.
  void stop();

  /// Dispatch events until stop(). Runs on the calling thread, which
  /// becomes the loop thread (the `loop_role_` owner) for the duration.
  void run();
  /// One poll + dispatch iteration (for tests and manual pumping; the
  /// caller must be the loop thread, or the loop must not be running).
  void run_once(int timeout_ms);

  /// The loop-thread ownership gate: debug-asserts the caller may touch
  /// loop-owned state and acquires the role for Clang's static analysis.
  /// Legal from any thread while the loop is not running.
  void assert_on_loop_thread() const IDICN_ASSERT_CAPABILITY(loop_role_) {
    loop_role_.assert_held();
  }
  /// True while some thread is inside run().
  [[nodiscard]] bool running() const noexcept { return loop_role_.bound(); }

  /// Milliseconds on the steady clock (process-relative).
  [[nodiscard]] std::uint64_t now_ms() const;

  // --- net::Executor (thin adapters; loop thread only, like the methods
  // they forward to) -----------------------------------------------------
  net::Executor::TaskId schedule(std::uint64_t delay_ms,
                                 std::function<void()> fn) override {
    return add_timer(delay_ms, std::move(fn));
  }
  bool cancel(net::Executor::TaskId id) override { return cancel_timer(id); }
  bool watch_fd(int fd, bool want_read, bool want_write,
                net::Executor::IoCallback on_event) override {
    return watch(fd, want_read, want_write, std::move(on_event));
  }
  bool update_fd(int fd, bool want_read, bool want_write) override {
    return update(fd, want_read, want_write);
  }
  void unwatch_fd(int fd) override { unwatch(fd); }
  [[nodiscard]] std::uint64_t now_ms_exec() const override { return now_ms(); }

 private:
  void drain_tasks() IDICN_REQUIRES(loop_role_) IDICN_EXCLUDES(tasks_mutex_);
  void wake();
  [[nodiscard]] int next_timeout_ms(int cap_ms) const IDICN_REQUIRES(loop_role_);

  /// Owns loop-thread-only state; bound by run(), asserted by every
  /// loop-thread-only entry point.
  core::sync::ThreadRole loop_role_;

  Poller poller_ IDICN_GUARDED_BY(loop_role_);
  TimerWheel timers_ IDICN_GUARDED_BY(loop_role_);
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_
      IDICN_GUARDED_BY(loop_role_);
  std::atomic<bool> stopping_{false};
  int wake_read_fd_ = -1;   ///< written by the constructor only
  int wake_write_fd_ = -1;  ///< written by the constructor only
  core::sync::Mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_ IDICN_GUARDED_BY(tasks_mutex_);
  /// Scratch for wait(), reused across iterations.
  std::vector<Ready> ready_ IDICN_GUARDED_BY(loop_role_);
};

}  // namespace idicn::runtime
