// Loop-native HTTP/1.1 client for one endpoint: non-blocking connect,
// keep-alive reuse, pipelined FIFO requests, incremental response decoding
// with streaming body delivery, and timer-wheel connect/IO deadlines.
//
// This is the client every SocketNet send runs on — what lets a proxy
// worker fetch from an upstream *without leaving its event loop*: issue()
// returns immediately, the transfer proceeds via fd readiness callbacks on
// the owning executor, and the completion (plus any streaming sink
// callbacks) fires on the loop thread. A send that must complete before
// returning runs it on a loop SocketNet lends to the calling thread. The
// blocking HttpClient (tests, benches, the trace driver) is this client on
// a loop of its own.
//
// Ownership: an AsyncHttpClient is confined to its executor's loop thread.
// The `role_` thread role is the static ownership domain — every mutating
// entry point requires it (callers gain it via assert_owned(), exactly
// like EventLoop::assert_on_loop_thread). The role is never bound to a
// thread at runtime; it exists for Clang's -Wthread-safety and for the
// tools/analysis loop-reachability roots.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/buffer.hpp"
#include "core/sync.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/tcp.hpp"

namespace idicn::runtime {

class AsyncHttpClient {
public:
  struct Options {
    int connect_timeout_ms = 5'000;
    int io_timeout_ms = 10'000;
  };

  /// Terminal outcome of one issue(): the response head (empty body for
  /// streaming ops, body attached for buffered ops) or nullopt + reason.
  /// Fires exactly once, on the loop thread, possibly inline from issue().
  using Completion =
      std::function<void(std::optional<net::HttpResponse>, std::string)>;

  /// Does not own `exec`; the caller keeps the executor alive for the
  /// client's lifetime (pool entries are destroyed before their loop).
  AsyncHttpClient(net::Executor* exec, std::string host, std::uint16_t port);
  AsyncHttpClient(net::Executor* exec, std::string host, std::uint16_t port,
                  Options options);
  ~AsyncHttpClient();

  AsyncHttpClient(const AsyncHttpClient&) = delete;
  AsyncHttpClient& operator=(const AsyncHttpClient&) = delete;

  /// Start one request. With a sink, body bytes stream to it as they
  /// arrive (head via on_head, slabs via on_chunk; returning false cancels
  /// the transfer and closes the connection — "streaming cancelled by
  /// sink"). Without a sink the body is buffered into the completed
  /// response. Requests pipeline FIFO on one connection; a dead reused
  /// connection is redialed once transparently when no sink saw anything.
  void issue(const net::HttpRequest& request,
             std::shared_ptr<net::ChunkSink> sink, Completion done)
      IDICN_REQUIRES(role_);

  /// Tear down: unwatch + close the connection, fail any pending ops with
  /// "client shut down". Safe to call repeatedly. Must run on the loop
  /// thread (or while the loop is not running) — the destructor does NOT
  /// do this (it only closes the fd), so live clients with watched fds
  /// must be shut down before destruction.
  void shutdown() IDICN_REQUIRES(role_);

  /// The loop-ownership gate for static analysis; see EventLoop's
  /// assert_on_loop_thread. The role is unbound, so this never aborts —
  /// it documents and type-checks the single-threaded discipline.
  void assert_owned() const IDICN_ASSERT_CAPABILITY(role_) {
    role_.assert_held();
  }

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }
  /// No ops in flight (the pool's precondition for parking/borrowing).
  [[nodiscard]] bool idle() const noexcept { return pending_ops_ == 0; }
  /// MSG_PEEK probe: a kept-alive connection with a pending FIN, error, or
  /// unsolicited bytes must be redialed, not reused.
  [[nodiscard]] bool stale_connection() const noexcept;

  [[nodiscard]] std::uint64_t requests_sent() const noexcept {
    return requests_sent_;
  }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

private:
  struct Op {
    std::string wire;                      ///< serialized request (replay)
    std::shared_ptr<net::ChunkSink> sink;  ///< null ⇒ buffer the body
    Completion done;
    bool delivered = false;   ///< sink (or buffer) saw the response head
    bool cancelled = false;   ///< a sink callback returned false
    core::ChunkedBody buffered;  ///< body staging for sink-less ops
  };

  void begin_connect() IDICN_REQUIRES(role_);
  void on_socket_event(bool readable, bool writable, bool error)
      IDICN_REQUIRES(role_);
  void finish_connect() IDICN_REQUIRES(role_);
  void read_input() IDICN_REQUIRES(role_);
  void flush_writes() IDICN_REQUIRES(role_);
  void drain_ready() IDICN_REQUIRES(role_);
  void complete_front(net::HttpResponse head) IDICN_REQUIRES(role_);
  void on_response_head(const net::HttpResponse& head) IDICN_REQUIRES(role_);
  void on_response_chunk(core::Chunk chunk) IDICN_REQUIRES(role_);
  /// Connection-level failure: redial-and-replay once when safe, else fail
  /// every pending op with `error`.
  void handle_failure(const std::string& error) IDICN_REQUIRES(role_);
  void fail_all(const std::string& error) IDICN_REQUIRES(role_);
  void close_connection() IDICN_REQUIRES(role_);
  void park_idle() IDICN_REQUIRES(role_);
  void arm_io_deadline() IDICN_REQUIRES(role_);
  void cancel_io_deadline() IDICN_REQUIRES(role_);
  void set_interest(bool want_read, bool want_write) IDICN_REQUIRES(role_);

  net::Executor* exec_;
  std::string host_;
  std::uint16_t port_;
  Options options_;

  /// Static ownership domain: all mutable state below belongs to the
  /// executor's loop thread. Unbound at runtime (assert_held passes); the
  /// annotations are the contract.
  mutable core::sync::ThreadRole role_;

  ScopedFd fd_;
  bool watched_ = false;
  bool connecting_ IDICN_GUARDED_BY(role_) = false;
  bool reused_ IDICN_GUARDED_BY(role_) = false;    ///< batch rides a kept-alive fd
  bool replayed_ IDICN_GUARDED_BY(role_) = false;  ///< one redial per batch
  std::string out_ IDICN_GUARDED_BY(role_);        ///< unsent wire bytes
  std::size_t out_offset_ IDICN_GUARDED_BY(role_) = 0;
  net::HttpDecoder decoder_ IDICN_GUARDED_BY(role_){
      net::HttpDecoder::Mode::Response};
  std::deque<Op> ops_ IDICN_GUARDED_BY(role_);
  std::size_t pending_ops_ = 0;  ///< ops_.size() mirror readable without the role
  net::Executor::TaskId connect_timer_ IDICN_GUARDED_BY(role_) = 0;
  bool connect_timer_armed_ IDICN_GUARDED_BY(role_) = false;
  net::Executor::TaskId io_timer_ IDICN_GUARDED_BY(role_) = 0;
  bool io_timer_armed_ IDICN_GUARDED_BY(role_) = false;
  std::uint64_t requests_sent_ = 0;
  /// Liveness token for timer/fd callbacks: they hold a weak_ptr and
  /// no-op after destruction, so a torn-down client never dangles.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

// Out of line: Options' default member initializers only become usable once
// the enclosing class is complete.
inline AsyncHttpClient::AsyncHttpClient(net::Executor* exec, std::string host,
                                        std::uint16_t port)
    : AsyncHttpClient(exec, std::move(host), port, Options{}) {}

}  // namespace idicn::runtime
