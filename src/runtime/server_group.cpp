#include "runtime/server_group.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "core/buffer.hpp"
#include "core/hot_path.hpp"
#include "net/http_decoder.hpp"
#include "net/http_internal.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/tcp.hpp"

namespace idicn::runtime {
namespace {

/// Refill target for producer-backed bodies: pump the producer until this
/// many bytes sit in the connection's output queue, then let the socket
/// drain before pulling more. Bounds per-connection memory while a large
/// object streams through, independent of the object's size.
constexpr std::size_t kProducerWindow = 256 * 1024;

/// Scatter-gather width per sendmsg() call. Chunks are slab-sized (256 KB
/// default), so 16 iovecs cover multiple megabytes per syscall.
constexpr std::size_t kMaxIov = 16;

/// Re-poll period while a connection's body producer is starved (queue
/// empty, producer Pending): no socket edge will fire, so the timer wheel
/// drives the retry. One wheel tick.
constexpr std::uint64_t kProducerPollMs = 10;

/// How long a worker stops reading its listener after accept() ran out of
/// descriptors or memory. The listener is level-triggered and the waiting
/// connection keeps it readable, so retrying at once would spin a core.
constexpr std::uint64_t kAcceptPauseMs = 50;

/// Mirror of HttpResponse::serialize_head()'s framing choice, so the
/// writer knows whether the producer body needs chunked framing on the
/// wire (no declared length) or raw bytes (Content-Length known).
bool producer_uses_chunked(const net::HttpResponse& response) {
  if (const auto te = response.headers.get_view("Transfer-Encoding")) {
    return net::detail::iequals(*te, "chunked");
  }
  if (response.headers.contains("Content-Length")) return false;
  return !response.producer->total_size().has_value();
}

/// RFC 7230 §4.1 chunk header for one data chunk.
std::string chunk_size_line(std::size_t size) {
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%zx\r\n", size);
  return std::string(buffer, static_cast<std::size_t>(n));
}

std::string peer_name(const sockaddr_in& addr) {
  char ip[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, ip, sizeof(ip));
  return std::string(ip) + ":" + std::to_string(ntohs(addr.sin_port));
}

void accumulate(ServerGroup::Stats& total, const ServerGroup::Stats& part) {
  total.connections_accepted += part.connections_accepted;
  total.connections_closed += part.connections_closed;
  total.connections_rejected += part.connections_rejected;
  total.requests_served += part.requests_served;
  total.bytes_in += part.bytes_in;
  total.bytes_out += part.bytes_out;
  total.decode_errors += part.decode_errors;
  total.timeouts += part.timeouts;
}

}  // namespace

// One reactor: an EventLoop thread owning a connection table and its own
// listener, the only one it accepts on. The hosted SimHost is shared across
// workers — everything else here is single-worker-owned, guarded by this
// worker's loop_role_. Lifecycle methods (start / stop_accepting /
// begin_drain / shutdown) are driven by the ServerGroup's controlling
// thread in that order.
//
// Requests are dispatched through SimHost::handle_http_async with this
// worker's loop as the executor: a handler that must fetch upstream parks
// its request in a per-connection ResponseSlot and returns immediately,
// so one slow MISS never blocks the reactor — concurrent cache HITs on
// the same worker keep flowing. Slots drain FIFO per connection, which
// preserves HTTP/1.1 pipeline order across out-of-order completions.
class ServerWorker {
 public:
  ServerWorker(net::SimHost* host, const ServerGroup::Options& options,
               ServerGroup* group, ScopedFd listener)
      : host_(host),
        options_(options),
        group_(group),
        listener_(std::move(listener)) {}
  ~ServerWorker() { shutdown(); }

  ServerWorker(const ServerWorker&) = delete;
  ServerWorker& operator=(const ServerWorker&) = delete;

  void start() {
    loop_role_.assert_held();  // pre-start: the role is unbound
    loop_ = std::make_unique<EventLoop>();
    loop_->watch(listener_.get(), true, false,
                 [this](bool readable, bool, bool) {
                   loop_role_.assert_held();
                   if (readable) on_accept();
                 });
    thread_ = core::sync::Thread([this] {
      loop_role_.bind();  // the worker owns its connections (+ shared host)
      loop_->run();
      loop_role_.unbind();
    });
  }

  /// Stop() phase 1: close the listener (post-and-wait, so no accept
  /// handler is mid-flight once this returns).
  void stop_accepting() {
    run_and_wait([this] {
      loop_role_.assert_held();
      if (listener_.valid()) {
        loop_->unwatch(listener_.get());
        listener_.reset();
      }
    });
  }

  /// Stop() phase 2 kickoff: close idle keep-alive connections now and
  /// mark the rest to close as soon as their buffered requests are
  /// answered (serve_decoded / flush consult draining_).
  void begin_drain() {
    loop_->post([this] {
      loop_role_.assert_held();
      draining_ = true;
      std::vector<int> idle;
      for (auto& [fd, conn] : connections_) {
        const bool mid_request = conn->decoder.mid_message();
        if (!mid_request && !conn->response_pending()) {
          idle.push_back(fd);
        } else {
          conn->closing = true;
        }
      }
      for (const int fd : idle) close_connection(fd);
    });
  }

  /// Stop() phase 3: stop the loop, join, force-close drain stragglers.
  /// Idempotent.
  void shutdown() {
    if (!thread_.joinable()) return;
    loop_->stop();
    thread_.join();
    // The worker unbound the role on exit; re-claim its state from this
    // thread and tear down on the (now stopped) loop's structures.
    loop_role_.assert_held();
    for (auto& [fd, conn] : connections_) {
      loop_->unwatch(fd);
      // Straggling parked handlers are told their client is gone before
      // the connection state (and the respond callbacks' target) vanishes.
      for (Connection::ResponseSlot& slot : conn->slots) {
        if (slot.op != nullptr) slot.op->abort();
      }
    }
    connections_.clear();
    active_ = 0;
    if (listener_.valid()) {
      loop_->unwatch(listener_.get());
      listener_.reset();
    }
    loop_.reset();
  }

  /// Queue a task on this worker's loop (rendezvous door for the group).
  void post(std::function<void()> task) { loop_->post(std::move(task)); }

  /// Post `fn` to the loop and block until it ran. Must not be called from
  /// this worker's own thread.
  void run_and_wait(const std::function<void()>& fn) {
    if (!thread_.joinable()) {
      loop_role_.assert_held();  // not running: the caller owns all state
      fn();
      return;
    }
    assert(thread_.get_id() != std::this_thread::get_id() &&
           "run_and_wait called from the worker thread");
    core::sync::Mutex mutex;
    core::sync::CondVar done_cv;
    bool done = false;
    loop_->post([&] {
      fn();
      const core::sync::MutexLock lock(mutex);
      done = true;
      done_cv.notify_one();
    });
    const core::sync::MutexLock lock(mutex);
    while (!done) done_cv.wait(mutex);
  }

  [[nodiscard]] std::size_t active_connections() const noexcept {
    return active_.value();
  }
  [[nodiscard]] std::thread::id thread_id() const noexcept {
    return thread_.get_id();
  }

  /// Lock-free snapshot, safe from any thread while the loop serves.
  [[nodiscard]] ServerGroup::Stats stats() const {
    ServerGroup::Stats out;
    out.connections_accepted = counters_.connections_accepted;
    out.connections_closed = counters_.connections_closed;
    out.connections_rejected = counters_.connections_rejected;
    out.requests_served = counters_.requests_served;
    out.bytes_in = counters_.bytes_in;
    out.bytes_out = counters_.bytes_out;
    out.decode_errors = counters_.decode_errors;
    out.timeouts = counters_.timeouts;
    return out;
  }

 private:
  struct Connection {
    /// One decoded request's place in the response pipeline. The host may
    /// answer inline (cache hit) or park the request and resume later from
    /// the event loop (upstream MISS fetch); either way the slot keeps the
    /// request's position, and slots drain strictly FIFO so responses
    /// leave in request order even when a parked MISS resolves after a
    /// later pipelined HIT.
    struct ResponseSlot {
      std::uint64_t id = 0;
      bool ready = false;          ///< response present; may drain at front
      bool count_served = false;   ///< tally in requests_served on drain
      bool peer_wants_close = false;  ///< request asked to close after it
      net::HttpResponse response;
      std::shared_ptr<net::AsyncOp> op;  ///< cancellation handle while parked
    };

    ScopedFd fd;
    std::string peer;                ///< "ip:port", passed as `from`
    net::HttpDecoder decoder;
    /// Output queue of shared, immutable chunks awaiting the socket. A
    /// cached object fanned out to N connections puts the *same* chunks in
    /// N queues — no per-connection body copy, and memory is released
    /// chunk by chunk as each connection drains (the old `std::string out`
    /// buffer both copied the body per connection and kept its grown
    /// capacity for the connection's lifetime).
    std::deque<core::Chunk> outq;
    std::size_t outq_offset = 0;     ///< bytes of outq.front() already sent
    std::size_t outq_bytes = 0;      ///< total unsent bytes across outq
    /// In-flight incremental body: chunks are pulled on demand while the
    /// socket drains, keeping at most ~kProducerWindow bytes queued.
    std::shared_ptr<net::BodyProducer> producer;
    bool producer_chunked = false;   ///< wire framing for producer chunks
    /// Pipelined responses that decoded behind an active producer; they
    /// enqueue in order once the producer finishes.
    std::deque<net::HttpResponse> deferred;
    bool producer_poll_armed = false;  ///< starvation re-poll timer pending
    bool closing = false;            ///< close once the queue drains
    bool write_armed = false;        ///< poller is watching writability
    std::uint64_t last_activity_ms = 0;
    std::uint64_t message_start_ms = 0;  ///< first byte of in-flight request
    TimerWheel::TimerId timer = 0;
    /// Outstanding + resolved-but-blocked response slots, in request
    /// order. Non-empty ⇔ the front slot is still parked on its handler
    /// (ready fronts drain immediately).
    std::deque<ResponseSlot> slots;
    std::uint64_t next_slot_id = 1;
    /// Distinguishes this connection from a later one reusing the same fd,
    /// so a parked handler's late respond callback cannot cross wires.
    std::uint64_t generation = 0;
    /// True while serve_decoded is inside handle_http_async: an inline
    /// respond just fills its slot and lets the dispatch loop drain.
    bool in_handler = false;

    Connection(ScopedFd fd_in, std::string peer_in)
        : fd(std::move(fd_in)),
          peer(std::move(peer_in)),
          decoder(net::HttpDecoder::Mode::Request) {}

    /// True while any response bytes remain unsent, unproduced, or still
    /// owed by a parked handler.
    [[nodiscard]] bool response_pending() const {
      return !outq.empty() || producer != nullptr || !deferred.empty() ||
             !slots.empty();
    }
  };

  void on_accept() IDICN_REQUIRES(loop_role_) {
    while (true) {
      sockaddr_in addr{};
      socklen_t len = sizeof(addr);
      const int fd = ::accept(listener_.get(),
                              reinterpret_cast<sockaddr*>(&addr), &len);
      if (fd < 0) {
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          pause_accepting();
        }
        return;  // drained, or a transient failure: the listener stays armed
      }
      adopt_connection(ScopedFd(fd), peer_name(addr));
    }
  }

  /// Stop reading the listener for kAcceptPauseMs; the waiting connection
  /// stays in the kernel backlog. stop_accepting() may close the listener
  /// before the timer fires.
  void pause_accepting() IDICN_REQUIRES(loop_role_) {
    loop_->update(listener_.get(), false, false);
    loop_->add_timer(kAcceptPauseMs, [this] {
      loop_role_.assert_held();
      if (listener_.valid()) loop_->update(listener_.get(), true, false);
    });
  }

  void adopt_connection(ScopedFd fd, std::string peer)
      IDICN_REQUIRES(loop_role_) {
    if (draining_) return;  // shutting down: refuse, ScopedFd closes
    if (connections_.size() >= options_.max_connections) {
      net::HttpResponse rejection =
          net::make_response(503, "server at connection capacity");
      rejection.headers.set("Retry-After",
                            std::to_string(options_.retry_after_s));
      const std::string reply = rejection.serialize_head() + rejection.body;
      (void)!::send(fd.get(), reply.data(), reply.size(), MSG_NOSIGNAL);
      ++counters_.connections_rejected;
      return;  // ScopedFd closes
    }
    set_nonblocking(fd.get());
    set_nodelay(fd.get());

    const int raw = fd.get();
    auto conn = std::make_unique<Connection>(std::move(fd), std::move(peer));
    conn->generation = next_generation_++;
    conn->last_activity_ms = loop_->now_ms();
    arm_timer(*conn);
    loop_->watch(raw, true, false,
                 [this, raw](bool readable, bool writable, bool error) {
                   loop_role_.assert_held();
                   on_connection_event(raw, readable, writable, error);
                 });
    connections_.emplace(raw, std::move(conn));
    ++active_;
    ++counters_.connections_accepted;
  }

  void arm_timer(Connection& conn) IDICN_REQUIRES(loop_role_) {
    // Lazy deadline check: fire at the nearest possible deadline and
    // recompute; reads just bump last_activity_ms without timer churn.
    const std::uint64_t delay =
        std::min(options_.idle_timeout_ms, options_.request_timeout_ms);
    const int fd = conn.fd.get();
    conn.timer = loop_->add_timer(delay, [this, fd] {
      loop_role_.assert_held();
      check_deadlines(fd);
    });
  }

  void check_deadlines(int fd) IDICN_REQUIRES(loop_role_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;
    // A parked connection is waiting on this server, not the client: the
    // handler's own deadlines (connect/IO timeouts, the retry envelope's
    // overall deadline) bound that wait, so neither the idle clock nor a
    // pending close may tear it down under the handler.
    const bool parked = !conn.slots.empty();
    if (conn.closing) {  // already draining towards close; stop waiting
      if (parked) {
        arm_timer(conn);
        return;
      }
      close_connection(fd);
      return;
    }
    const std::uint64_t now = loop_->now_ms();

    const bool mid_request = conn.decoder.mid_message();
    const bool request_expired =
        mid_request &&
        now - conn.message_start_ms >= options_.request_timeout_ms;
    const bool idle_expired =
        !parked && now - conn.last_activity_ms >= options_.idle_timeout_ms;

    if (request_expired || idle_expired) {
      ++counters_.timeouts;
      if (request_expired) {
        // Pre-resolved slot: the 408 queues behind any earlier parked
        // responses instead of jumping the pipeline.
        conn.slots.push_back({});
        Connection::ResponseSlot& slot = conn.slots.back();
        slot.id = conn.next_slot_id++;
        slot.ready = true;
        slot.response = net::make_response(408, "request timed out");
        drain_slots(conn);
      }
      conn.closing = true;
      flush(conn);  // may close the connection
      if (connections_.count(fd) != 0) arm_timer(conn);
      return;
    }
    arm_timer(conn);
  }

  void close_connection(int fd) IDICN_REQUIRES(loop_role_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    // The client went away: abort parked handler work so the host stops
    // fetching for a response nobody will read. A respond callback that
    // races the abort finds the fd gone (or the generation changed) and
    // drops its response.
    for (Connection::ResponseSlot& slot : it->second->slots) {
      if (slot.op != nullptr) slot.op->abort();
    }
    loop_->cancel_timer(it->second->timer);
    loop_->unwatch(fd);
    connections_.erase(it);  // ScopedFd closes
    --active_;
    ++counters_.connections_closed;
    group_->notify_connection_closed();  // a drain wait may be pending
  }

  void serve_decoded(Connection& conn) IDICN_REQUIRES(loop_role_) {
    const int fd = conn.fd.get();
    // Dispatch every pipelined request in arrival order. Each gets an
    // ordered ResponseSlot; the host answers via the respond callback —
    // inline for cache hits and other synchronous paths, later from the
    // event loop when the handler parks on upstream work. The loop thread
    // stays free to serve other connections while a request is parked.
    while (auto request = conn.decoder.next_request()) {
      const bool peer_wants_close = [&] {
        const auto connection = request->headers.get_view("Connection");
        if (connection) {
          return net::detail::token_list_contains(*connection, "close");
        }
        return request->version == "HTTP/1.0";
      }();
      conn.slots.push_back({});
      {
        Connection::ResponseSlot& slot = conn.slots.back();
        slot.id = conn.next_slot_id++;
        slot.count_served = true;
        slot.peer_wants_close = peer_wants_close;
      }
      const std::uint64_t slot_id = conn.slots.back().id;
      const std::uint64_t generation = conn.generation;

      conn.in_handler = true;  // inline respond defers to the drain below
      try {
        auto op = host_->handle_http_async(
            *request, conn.peer, loop_.get(),
            [this, fd, generation, slot_id](net::HttpResponse response) {
              loop_role_.assert_held();
              resolve_slot(fd, generation, slot_id, std::move(response));
            });
        // Keep the cancellation handle only while the request is parked,
        // so close_connection can tell the host the client went away.
        if (op != nullptr) {
          for (Connection::ResponseSlot& pending : conn.slots) {
            if (pending.id == slot_id && !pending.ready) {
              pending.op = std::move(op);
              break;
            }
          }
        }
      } catch (const std::exception& e) {
        resolve_slot(fd, generation, slot_id,
                     net::make_response(
                         500, std::string("handler error: ") + e.what()));
      }
      conn.in_handler = false;

      if (peer_wants_close) conn.closing = true;  // last request we serve
      drain_slots(conn);
      if (conn.closing) break;
    }
    // A draining worker closes each connection once its buffered requests
    // are answered — further keep-alive traffic would outlive the window.
    if (draining_) conn.closing = true;

    if (conn.decoder.failed()) {
      ++counters_.decode_errors;
      // Pre-resolved slot so the error response queues behind any parked
      // requests instead of jumping the pipeline.
      conn.slots.push_back({});
      Connection::ResponseSlot& slot = conn.slots.back();
      slot.id = conn.next_slot_id++;
      slot.ready = true;
      slot.response = net::make_response(conn.decoder.suggested_status(),
                                         "malformed request: " +
                                             conn.decoder.error());
      conn.closing = true;
      drain_slots(conn);
    }
  }

  /// A handler finished — inline or after parking. Fill the slot and, on
  /// an asynchronous resume, push whatever became drainable to the wire.
  /// A missing fd or a generation mismatch means the client disconnected
  /// (and the fd was possibly reused) while the handler ran; the response
  /// is dropped.
  void resolve_slot(int fd, std::uint64_t generation, std::uint64_t slot_id,
                    net::HttpResponse response) IDICN_REQUIRES(loop_role_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;
    if (conn.generation != generation) return;
    for (Connection::ResponseSlot& slot : conn.slots) {
      if (slot.id != slot_id) continue;
      if (slot.ready) return;  // respond fires once; tolerate repeats
      slot.ready = true;
      slot.op.reset();
      slot.response = std::move(response);
      break;
    }
    if (conn.in_handler) return;  // serve_decoded drains after dispatch
    drain_slots(conn);
    flush(conn);  // may close the connection
  }

  /// Move ready slots at the queue front into the write path, preserving
  /// request order. Stops at the first slot still parked on its handler.
  void drain_slots(Connection& conn) IDICN_REQUIRES(loop_role_) {
    while (!conn.slots.empty() && conn.slots.front().ready) {
      Connection::ResponseSlot slot = std::move(conn.slots.front());
      conn.slots.pop_front();
      if (slot.peer_wants_close) {
        slot.response.headers.set("Connection", "close");
        conn.closing = true;
      }
      enqueue_response(conn, std::move(slot.response));
      // Counted before the flush that sends the response: a client that
      // sees its answer also sees it served.
      if (slot.count_served) ++counters_.requests_served;
    }
  }

  void enqueue_chunk(Connection& conn, core::Chunk chunk)
      IDICN_REQUIRES(loop_role_) {
    if (chunk.empty()) return;
    conn.outq_bytes += chunk.size();
    conn.outq.push_back(std::move(chunk));
  }

  void enqueue_bytes(Connection& conn, std::string bytes)
      IDICN_REQUIRES(loop_role_) {
    if (bytes.empty()) return;
    enqueue_chunk(conn, core::Chunk::from_string(std::move(bytes)));
  }

  /// Queue a response for the wire, respecting pipeline order: while a
  /// producer-backed body is in flight, later responses wait in `deferred`
  /// until the producer's terminator is queued.
  void enqueue_response(Connection& conn, net::HttpResponse response)
      IDICN_REQUIRES(loop_role_) {
    if (conn.producer != nullptr || !conn.deferred.empty()) {
      conn.deferred.push_back(std::move(response));
      return;
    }
    enqueue_response_now(conn, std::move(response));
  }

  void enqueue_response_now(Connection& conn, net::HttpResponse response)
      IDICN_REQUIRES(loop_role_) {
    if (response.producer != nullptr) {
      conn.producer_chunked = producer_uses_chunked(response);
      enqueue_bytes(conn, response.serialize_head());
      conn.producer = std::move(response.producer);
      return;
    }
    // Flat and chunked bodies alike go out as shared chunks behind the
    // head; the cached object's chunks are referenced, never copied.
    enqueue_bytes(conn, response.serialize_head());
    for (core::Chunk& chunk : response.take_body_chunks().take()) {
      enqueue_chunk(conn, std::move(chunk));
    }
  }

  /// Pull from the connection's producer until ~kProducerWindow bytes are
  /// queued (or it runs dry). Returns true when new bytes were queued.
  ///
  /// Fail-closed by construction: a producer error closes the connection
  /// *without* queueing the chunked terminator (or, with Content-Length
  /// framing, short of the declared length) — the client sees a truncated
  /// body it must discard, never a clean end to corrupt content.
  bool pump_producer(Connection& conn) IDICN_REQUIRES(loop_role_) {
    bool queued = false;
    while (conn.producer != nullptr && conn.outq_bytes < kProducerWindow) {
      core::Chunk chunk;
      const net::BodyProducer::Pull pull = conn.producer->pull(&chunk);
      if (pull == net::BodyProducer::Pull::Ready) {
        if (chunk.empty()) continue;
        if (conn.producer_chunked) {
          enqueue_bytes(conn, chunk_size_line(chunk.size()));
          enqueue_chunk(conn, std::move(chunk));
          enqueue_bytes(conn, "\r\n");
        } else {
          enqueue_chunk(conn, std::move(chunk));
        }
        queued = true;
        continue;
      }
      if (pull == net::BodyProducer::Pull::Pending) break;
      if (pull == net::BodyProducer::Pull::Done) {
        if (conn.producer_chunked) {
          enqueue_bytes(conn, "0\r\n\r\n");
          queued = true;
        }
        conn.producer.reset();
        // The producer's response is complete: queue what piled up behind
        // it (which may itself install the next producer).
        while (conn.producer == nullptr && !conn.deferred.empty()) {
          net::HttpResponse next = std::move(conn.deferred.front());
          conn.deferred.pop_front();
          enqueue_response_now(conn, std::move(next));
          queued = true;
        }
        continue;
      }
      // Pull::Error — the body can never complete (e.g. upstream died or
      // content verification failed mid-stream). Drop everything after the
      // already-queued prefix and close.
      conn.producer.reset();
      conn.deferred.clear();
      conn.closing = true;
      break;
    }
    return queued;
  }

  IDICN_HOT_PATH void flush(Connection& conn) IDICN_REQUIRES(loop_role_) {
    const int fd = conn.fd.get();
    std::uint64_t sent_total = 0;
    bool blocked = false;
    bool dead = false;
    while (true) {
      if (conn.producer != nullptr && conn.outq_bytes < kProducerWindow) {
        pump_producer(conn);
      }
      if (conn.outq.empty()) break;

      // Gather up to kMaxIov chunks into one sendmsg() — header, cached
      // body chunks, and chunked-framing lines go out in a single syscall
      // without ever being copied into a contiguous buffer.
      iovec iov[kMaxIov];
      std::size_t iov_count = 0;
      std::size_t skip = conn.outq_offset;
      for (const core::Chunk& chunk : conn.outq) {
        if (iov_count == kMaxIov) break;
        const std::string_view view = chunk.view();
        iov[iov_count].iov_base =
            const_cast<char*>(view.data()) + skip;
        iov[iov_count].iov_len = view.size() - skip;
        skip = 0;
        ++iov_count;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = iov_count;
      const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          blocked = true;  // backpressure: park until the socket drains
          break;
        }
        dead = true;
        break;
      }
      sent_total += static_cast<std::uint64_t>(n);
      std::size_t remaining = static_cast<std::size_t>(n);
      while (remaining > 0) {
        const std::size_t avail =
            conn.outq.front().size() - conn.outq_offset;
        if (remaining < avail) {
          conn.outq_offset += remaining;
          conn.outq_bytes -= remaining;
          remaining = 0;
        } else {
          remaining -= avail;
          conn.outq_bytes -= avail;
          conn.outq_offset = 0;
          conn.outq.pop_front();  // releases the chunk reference
        }
      }
    }
    if (sent_total > 0) counters_.bytes_out += sent_total;
    if (dead) {
      close_connection(fd);
      return;
    }
    if (conn.closing && !conn.response_pending()) {
      close_connection(fd);
      return;
    }
    const bool want_write = blocked && !conn.outq.empty();
    if (want_write != conn.write_armed) {
      conn.write_armed = want_write;
      loop_->update(fd, !conn.closing, want_write);
    }
    // Starvation: queue drained but the producer has no bytes yet (its
    // upstream is still fetching). The socket gives no edge to wake on, so
    // re-poll on the timer wheel until bytes (or the error) arrive.
    if (conn.outq.empty() && conn.producer != nullptr &&
        !conn.producer_poll_armed) {
      conn.producer_poll_armed = true;
      loop_->add_timer(kProducerPollMs, [this, fd] {
        loop_role_.assert_held();
        const auto it = connections_.find(fd);
        if (it == connections_.end()) return;
        it->second->producer_poll_armed = false;
        flush(*it->second);
      });
    }
  }

  void on_connection_event(int fd, bool readable, bool writable, bool error)
      IDICN_REQUIRES(loop_role_) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    Connection& conn = *it->second;

    if (error) {
      close_connection(fd);
      return;
    }

    if (readable) {
      char buffer[16 * 1024];
      while (true) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n == 0) {  // orderly shutdown by the peer
          close_connection(fd);
          return;
        }
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          close_connection(fd);
          return;
        }
        const std::uint64_t now = loop_->now_ms();
        if (!conn.decoder.mid_message()) conn.message_start_ms = now;
        conn.last_activity_ms = now;
        counters_.bytes_in += static_cast<std::uint64_t>(n);
        conn.decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        // A short read drained the socket: skip the recv that would only
        // say EAGAIN. The poller is level-triggered, so bytes that arrive
        // meanwhile (or a pending FIN) report the fd readable again.
        if (static_cast<std::size_t>(n) < sizeof(buffer)) break;
      }
      serve_decoded(conn);
    }

    if (writable || conn.response_pending()) flush(conn);
  }

  /// Owns this worker's connection state while its thread runs; bound by
  /// the worker thread body, re-claimed by shutdown() after the join.
  core::sync::ThreadRole loop_role_;

  net::SimHost* host_;  ///< shared across workers; thread-safe handlers
  const ServerGroup::Options& options_;  ///< owned by the ServerGroup
  ServerGroup* group_;                   ///< owns this worker
  /// Connection identity counter for parked-handler resume callbacks (fd
  /// values get reused; generations do not).
  std::uint64_t next_generation_ IDICN_GUARDED_BY(loop_role_) = 1;
  /// Created by start() before the thread exists, destroyed by shutdown()
  /// after the join; the pointer itself is never touched concurrently.
  std::unique_ptr<EventLoop> loop_;
  ScopedFd listener_ IDICN_GUARDED_BY(loop_role_);
  bool draining_ IDICN_GUARDED_BY(loop_role_) = false;
  core::sync::Thread thread_;
  std::map<int, std::unique_ptr<Connection>> connections_
      IDICN_GUARDED_BY(loop_role_);
  /// Live connection gauge sampled by the group's drain wait.
  core::sync::RelaxedCounter active_;

  /// ServerGroup::Stats as relaxed counters: only this worker's loop
  /// thread bumps them, and stats() reads them from any thread without a
  /// lock — no lock round trip per recv, served request or flush.
  struct Counters {
    core::sync::RelaxedCounter connections_accepted;
    core::sync::RelaxedCounter connections_closed;
    core::sync::RelaxedCounter connections_rejected;
    core::sync::RelaxedCounter requests_served;
    core::sync::RelaxedCounter bytes_in;
    core::sync::RelaxedCounter bytes_out;
    core::sync::RelaxedCounter decode_errors;
    core::sync::RelaxedCounter timeouts;
  };
  Counters counters_;
};

ServerGroup::ServerGroup(net::SimHost* host, std::string address)
    : ServerGroup(host, std::move(address), Options{}) {}

ServerGroup::ServerGroup(net::SimHost* host, std::string address,
                         Options options)
    : host_(host), address_(std::move(address)), options_(options) {
  if (host_ == nullptr) throw std::invalid_argument("ServerGroup: null host");
}

ServerGroup::~ServerGroup() { stop(); }

std::uint16_t ServerGroup::start(std::uint16_t port) {
  if (!workers_.empty()) {
    throw std::runtime_error("ServerGroup: already started");
  }
  const std::size_t worker_total = std::max<std::size_t>(1, options_.workers);

  // One listener per worker, all on one port: with several, SO_REUSEPORT
  // lets the kernel spread accepted connections across them. A lone
  // listener leaves it off, so a second server on its port fails to bind.
  ListenOptions listen_options;
  listen_options.reuseport = worker_total > 1;
  std::vector<ScopedFd> listeners;
  std::uint16_t bound = port;
  for (std::size_t i = 0; i < worker_total; ++i) {
    std::string error;
    // The first bind resolves an ephemeral request; siblings join its port.
    const int fd = listen_tcp(bound, &bound, &error, listen_options);
    if (fd < 0) {
      throw std::runtime_error("ServerGroup[" + address_ + "]: " + error);
    }
    listeners.emplace_back(fd);
  }
  port_ = bound;

  for (ScopedFd& listener : listeners) {
    workers_.push_back(std::make_unique<ServerWorker>(host_, options_, this,
                                                      std::move(listener)));
  }
  for (auto& worker : workers_) worker->start();
  return port_;
}

void ServerGroup::stop() {
  if (workers_.empty()) return;
  // 1. Stop accepting: every listener closes before any drain begins.
  for (auto& worker : workers_) worker->stop_accepting();
  // 2. Drain: idle connections close immediately, in-flight requests get
  //    up to drain_timeout_ms; each close signals drain_cv_.
  for (auto& worker : workers_) worker->begin_drain();
  {
    const core::sync::MutexLock lock(drain_mutex_);
    drain_cv_.wait_for(drain_mutex_, options_.drain_timeout_ms,
                       [this] { return total_active_connections() == 0; });
  }
  // 3. Join every worker; stragglers past the deadline are force-closed.
  for (auto& worker : workers_) worker->shutdown();
  {
    const core::sync::MutexLock lock(lifecycle_mutex_);
    for (auto& worker : workers_) accumulate(retired_total_, worker->stats());
    workers_.clear();
  }
}

void ServerGroup::run_on_all_workers(const std::function<void()>& fn) {
  if (workers_.empty()) {
    fn();  // not running: the caller owns all state
    return;
  }
#ifndef NDEBUG
  for (const auto& worker : workers_) {
    assert(worker->thread_id() != std::this_thread::get_id() &&
           "run_on_all_workers called from a worker thread");
  }
#endif
  struct Rendezvous {
    core::sync::Mutex mutex;
    core::sync::CondVar cv;
    std::size_t parked IDICN_GUARDED_BY(mutex) = 0;
    bool resume IDICN_GUARDED_BY(mutex) = false;
  };
  // Heap-held and shared with every worker task: the last worker to wake
  // may still touch the mutex after this function has already returned.
  auto rendezvous = std::make_shared<Rendezvous>();
  const std::size_t worker_total = workers_.size();
  for (auto& worker : workers_) {
    worker->post([rendezvous] {
      const core::sync::MutexLock lock(rendezvous->mutex);
      ++rendezvous->parked;
      rendezvous->cv.notify_all();
      while (!rendezvous->resume) rendezvous->cv.wait(rendezvous->mutex);
    });
  }
  {
    const core::sync::MutexLock lock(rendezvous->mutex);
    while (rendezvous->parked != worker_total) {
      rendezvous->cv.wait(rendezvous->mutex);
    }
  }
  // Every worker is parked: this thread has exclusive access to the host.
  const auto release = [&rendezvous] {
    {
      const core::sync::MutexLock lock(rendezvous->mutex);
      rendezvous->resume = true;
    }
    rendezvous->cv.notify_all();
  };
  try {
    fn();
  } catch (...) {
    release();
    throw;
  }
  release();
}

std::size_t ServerGroup::worker_count() const noexcept {
  if (!workers_.empty()) return workers_.size();
  return std::max<std::size_t>(1, options_.workers);
}

ServerGroup::Stats ServerGroup::stats() const {
  const core::sync::MutexLock lock(lifecycle_mutex_);
  Stats total = retired_total_;
  for (const auto& worker : workers_) accumulate(total, worker->stats());
  return total;
}

ServerGroup::Stats ServerGroup::worker_stats(std::size_t worker) const {
  const core::sync::MutexLock lock(lifecycle_mutex_);
  if (worker >= workers_.size()) {
    throw std::out_of_range("ServerGroup::worker_stats: no such worker");
  }
  return workers_[worker]->stats();
}

void ServerGroup::notify_connection_closed() {
  // Taken-and-dropped so a concurrent drain wait cannot miss the signal
  // between its predicate check and its sleep.
  const core::sync::MutexLock lock(drain_mutex_);
  drain_cv_.notify_all();
}

std::size_t ServerGroup::total_active_connections() const {
  std::size_t total = 0;
  for (const auto& worker : workers_) total += worker->active_connections();
  return total;
}

}  // namespace idicn::runtime
