#include "runtime/async_http_client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "net/http_internal.hpp"

namespace idicn::runtime {
namespace {

/// Buffered bodies at most this large stay flat, mirroring the decoder's
/// default slab threshold; larger ones keep their chunk representation.
constexpr std::size_t kFlatBodyMax = 256 * 1024;

}  // namespace

AsyncHttpClient::AsyncHttpClient(net::Executor* exec, std::string host,
                                 std::uint16_t port, Options options)
    : exec_(exec), host_(std::move(host)), port_(port), options_(options) {
  assert_owned();
  net::HttpDecoder::StreamHooks hooks;
  hooks.on_head = [this](const net::HttpResponse& head) {
    assert_owned();
    on_response_head(head);
  };
  hooks.on_chunk = [this](core::Chunk chunk) {
    assert_owned();
    on_response_chunk(std::move(chunk));
  };
  decoder_.set_stream_hooks(std::move(hooks));
}

AsyncHttpClient::~AsyncHttpClient() {
  // Only the fd: pooled clients are parked (unwatched, timer-less) before
  // they can be destroyed, and callbacks in flight no-op via alive_.
  fd_.reset();
}

bool AsyncHttpClient::stale_connection() const noexcept {
  if (!fd_.valid()) return false;
  char probe = 0;
  const ssize_t n =
      ::recv(fd_.get(), &probe, sizeof(probe), MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;  // peer FIN while pooled
  if (n > 0) return true;   // unsolicited bytes (stale response / garbage)
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

void AsyncHttpClient::issue(const net::HttpRequest& request,
                            std::shared_ptr<net::ChunkSink> sink,
                            Completion done) IDICN_REQUIRES(role_) {
  const bool was_idle = ops_.empty();
  Op op;
  op.wire = request.serialize();
  op.sink = std::move(sink);
  op.done = std::move(done);
  ++requests_sent_;
  ops_.push_back(std::move(op));
  ++pending_ops_;

  if (!fd_.valid()) {
    if (!connecting_) begin_connect();
    return;
  }
  if (connecting_) return;  // wire flushes when the connect completes
  if (was_idle) {
    // A parked keep-alive connection: this batch is a reuse, eligible for
    // one transparent redial if the server idled it out under us.
    reused_ = true;
    replayed_ = false;
  }
  out_.append(ops_.back().wire);
  set_interest(true, true);
  arm_io_deadline();
  flush_writes();
}

void AsyncHttpClient::shutdown() IDICN_REQUIRES(role_) {
  fail_all("client shut down");
}

void AsyncHttpClient::begin_connect() IDICN_REQUIRES(role_) {
  // (Re)build the unsent buffer from every pending op so a redial replays
  // the full batch in order.
  out_.clear();
  out_offset_ = 0;
  for (const Op& op : ops_) out_.append(op.wire);
  decoder_.reset();
  reused_ = false;
  connecting_ = true;

  std::string reason;
  const int fd = connect_tcp_nonblocking(host_, port_, &reason);
  if (fd < 0) {
    connecting_ = false;
    fail_all(reason);
    return;
  }
  set_nodelay(fd);
  fd_.reset(fd);
  std::weak_ptr<char> alive{alive_};
  watched_ = exec_->watch_fd(
      fd, /*want_read=*/false, /*want_write=*/true,
      [this, alive](bool readable, bool writable, bool error) {
        if (alive.expired()) return;
        assert_owned();
        on_socket_event(readable, writable, error);
      });
  if (!watched_) {
    connecting_ = false;
    fail_all("watch failed for upstream connection");
    return;
  }
  connect_timer_ = exec_->schedule(
      static_cast<std::uint64_t>(options_.connect_timeout_ms),
      [this, alive]() {
        if (alive.expired()) return;
        assert_owned();
        connect_timer_armed_ = false;
        handle_failure("connect timeout to " + host_);
      });
  connect_timer_armed_ = true;
}

void AsyncHttpClient::on_socket_event(bool readable, bool writable, bool error)
    IDICN_REQUIRES(role_) {
  if (connecting_) {
    if (writable || error) finish_connect();
    return;
  }
  if (readable || error) {
    const std::weak_ptr<char> alive{alive_};
    read_input();
    if (alive.expired() || !fd_.valid() || ops_.empty()) return;
  }
  if (writable && out_offset_ < out_.size()) flush_writes();
}

void AsyncHttpClient::finish_connect() IDICN_REQUIRES(role_) {
  int soerr = 0;
  socklen_t len = sizeof(soerr);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
      soerr != 0) {
    handle_failure(std::string("connect: ") +
                   std::strerror(soerr != 0 ? soerr : errno));
    return;
  }
  connecting_ = false;
  if (connect_timer_armed_) {
    exec_->cancel(connect_timer_);
    connect_timer_armed_ = false;
  }
  set_interest(true, out_offset_ < out_.size());
  arm_io_deadline();
  flush_writes();
}

void AsyncHttpClient::read_input() IDICN_REQUIRES(role_) {
  char buffer[16 * 1024];
  while (fd_.valid() && !ops_.empty()) {
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n == 0) {
      handle_failure("connection closed mid-response");
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      handle_failure(std::string("recv: ") + std::strerror(errno));
      return;
    }
    arm_io_deadline();
    decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    if (decoder_.failed()) {
      handle_failure("malformed response: " + decoder_.error());
      return;
    }
    const std::weak_ptr<char> alive{alive_};
    drain_ready();
    if (alive.expired()) return;
    if (!ops_.empty() && ops_.front().cancelled) {
      // Mid-body cancellation: a half-read body poisons reuse.
      Op op = std::move(ops_.front());
      ops_.pop_front();
      --pending_ops_;
      std::deque<Op> rest;
      rest.swap(ops_);
      pending_ops_ = 0;
      close_connection();
      op.done(std::nullopt, "streaming cancelled by sink");
      for (Op& other : rest) {
        other.done(std::nullopt, "connection closed mid-response");
      }
      return;
    }
  }
}

void AsyncHttpClient::flush_writes() IDICN_REQUIRES(role_) {
  while (fd_.valid() && out_offset_ < out_.size()) {
    const ssize_t n = ::send(fd_.get(), out_.data() + out_offset_,
                             out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_interest(true, true);
        return;
      }
      handle_failure(std::string("send: ") + std::strerror(errno));
      return;
    }
    out_offset_ += static_cast<std::size_t>(n);
    arm_io_deadline();
  }
  if (fd_.valid() && out_offset_ >= out_.size()) {
    out_.clear();
    out_offset_ = 0;
    set_interest(true, false);
  }
}

void AsyncHttpClient::drain_ready() IDICN_REQUIRES(role_) {
  // A completion may destroy this client (its owner drops a failed or
  // unpoolable connection), so no member is touched once `alive` expires.
  const std::weak_ptr<char> alive{alive_};
  while (!ops_.empty()) {
    auto head = decoder_.next_response();
    if (!head) return;
    complete_front(std::move(*head));
    if (alive.expired()) return;
  }
}

void AsyncHttpClient::on_response_head(const net::HttpResponse& head)
    IDICN_REQUIRES(role_) {
  if (ops_.empty()) return;  // unsolicited; the decoder drains into the void
  Op& op = ops_.front();
  op.delivered = true;
  if (op.sink && !op.sink->on_head(head)) op.cancelled = true;
}

void AsyncHttpClient::on_response_chunk(core::Chunk chunk)
    IDICN_REQUIRES(role_) {
  if (ops_.empty()) return;
  Op& op = ops_.front();
  if (op.cancelled) return;  // decoder may still flush a staged slab
  if (op.sink) {
    if (!op.sink->on_chunk(std::move(chunk))) op.cancelled = true;
  } else {
    op.buffered.append(std::move(chunk));
  }
}

void AsyncHttpClient::complete_front(net::HttpResponse head)
    IDICN_REQUIRES(role_) {
  Op op = std::move(ops_.front());
  ops_.pop_front();
  --pending_ops_;

  if (op.cancelled) {
    std::deque<Op> rest;
    rest.swap(ops_);
    pending_ops_ = 0;
    close_connection();
    op.done(std::nullopt, "streaming cancelled by sink");
    for (Op& other : rest) {
      other.done(std::nullopt, "connection closed mid-response");
    }
    return;
  }

  if (!op.sink && !op.buffered.empty()) {
    if (op.buffered.size() <= kFlatBodyMax) {
      head.body = op.buffered.to_string();
    } else {
      head.stream_body = std::move(op.buffered);
    }
  }

  bool will_close = false;
  if (const auto connection = head.headers.get_view("Connection");
      connection && net::detail::token_list_contains(*connection, "close")) {
    will_close = true;
  }
  // Settle the connection before the completion runs: it may re-enter
  // issue() for a follow-up request.
  if (will_close) close_connection();
  if (ops_.empty()) {
    park_idle();
  } else if (will_close) {
    begin_connect();  // the rest of the batch redials (nothing delivered)
  } else {
    arm_io_deadline();
  }
  op.done(std::move(head), std::string());
}

void AsyncHttpClient::handle_failure(const std::string& error)
    IDICN_REQUIRES(role_) {
  bool can_replay = reused_ && !replayed_ && !ops_.empty();
  for (const Op& op : ops_) {
    // Never replay once a streaming sink saw anything, or after a cancel.
    if (op.cancelled || (op.sink && op.delivered)) can_replay = false;
  }
  if (can_replay) {
    // Keep-alive race: the server idled the connection out between our
    // requests; nothing reached a sink, so a clean replay is safe.
    replayed_ = true;
    for (Op& op : ops_) {
      op.delivered = false;
      op.buffered.clear();
    }
    close_connection();
    begin_connect();
    return;
  }
  fail_all(error);
}

void AsyncHttpClient::fail_all(const std::string& error)
    IDICN_REQUIRES(role_) {
  close_connection();
  std::deque<Op> failed;
  failed.swap(ops_);
  pending_ops_ = 0;
  reused_ = false;
  replayed_ = false;
  out_.clear();
  out_offset_ = 0;
  for (Op& op : failed) op.done(std::nullopt, error);
}

void AsyncHttpClient::close_connection() IDICN_REQUIRES(role_) {
  if (connect_timer_armed_) {
    exec_->cancel(connect_timer_);
    connect_timer_armed_ = false;
  }
  cancel_io_deadline();
  if (watched_ && fd_.valid()) exec_->unwatch_fd(fd_.get());
  watched_ = false;
  connecting_ = false;
  fd_.reset();
  decoder_.reset();
}

void AsyncHttpClient::park_idle() IDICN_REQUIRES(role_) {
  cancel_io_deadline();
  if (watched_ && fd_.valid()) exec_->unwatch_fd(fd_.get());
  watched_ = false;
  reused_ = false;
  replayed_ = false;
  out_.clear();
  out_offset_ = 0;
}

void AsyncHttpClient::arm_io_deadline() IDICN_REQUIRES(role_) {
  cancel_io_deadline();
  std::weak_ptr<char> alive{alive_};
  io_timer_ = exec_->schedule(static_cast<std::uint64_t>(options_.io_timeout_ms),
                              [this, alive]() {
                                if (alive.expired()) return;
                                assert_owned();
                                io_timer_armed_ = false;
                                handle_failure("receive timeout");
                              });
  io_timer_armed_ = true;
}

void AsyncHttpClient::cancel_io_deadline() IDICN_REQUIRES(role_) {
  if (io_timer_armed_) {
    exec_->cancel(io_timer_);
    io_timer_armed_ = false;
  }
}

void AsyncHttpClient::set_interest(bool want_read, bool want_write)
    IDICN_REQUIRES(role_) {
  if (!fd_.valid()) return;
  if (watched_) {
    exec_->update_fd(fd_.get(), want_read, want_write);
    return;
  }
  std::weak_ptr<char> alive{alive_};
  watched_ = exec_->watch_fd(
      fd_.get(), want_read, want_write,
      [this, alive](bool readable, bool writable, bool error) {
        if (alive.expired()) return;
        assert_owned();
        on_socket_event(readable, writable, error);
      });
}

}  // namespace idicn::runtime
