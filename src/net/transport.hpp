// Abstract message transport for the idICN application layer.
//
// The §6 hosts (proxy, reverse proxy, client, NRS) speak request/response
// HTTP to named peers. Historically they were bound directly to the
// in-process SimNet; extracting this interface lets the same unmodified
// host classes run over either transport:
//   * net::SimNet        — deterministic in-process delivery, virtual clock
//                          (simulation and unit tests);
//   * runtime::SocketNet — real non-blocking TCP to runtime::HostServer
//                          endpoints, wall clock (the serving runtime).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "net/http_message.hpp"

namespace idicn::net {

using Address = std::string;

/// Reactor services a transport needs to run an operation asynchronously:
/// timers plus readiness-driven fd watching, both owned by a single loop
/// thread. runtime::EventLoop implements this; transports that receive a
/// null Executor fall back to their synchronous path. All methods must be
/// called on (or, for fd registration before the loop runs, serialized
/// with) the owning loop thread — the same discipline EventLoop already
/// enforces with its loop role.
class Executor {
public:
  using TaskId = std::uint64_t;
  /// (readable, writable, error) — mirrors runtime::EventLoop::IoHandler.
  using IoCallback = std::function<void(bool, bool, bool)>;

  virtual ~Executor() = default;

  /// Run `fn` once after `delay_ms` on the loop thread. Returns an id
  /// usable with cancel().
  virtual TaskId schedule(std::uint64_t delay_ms, std::function<void()> fn) = 0;
  /// Cancel a scheduled task; false if it already fired or never existed.
  virtual bool cancel(TaskId id) = 0;

  /// Register `fd` for readiness callbacks. One callback per fd.
  virtual bool watch_fd(int fd, bool want_read, bool want_write,
                        IoCallback on_event) = 0;
  /// Change interest on an already-watched fd.
  virtual bool update_fd(int fd, bool want_read, bool want_write) = 0;
  /// Remove `fd` from the watch set (no-op if absent).
  virtual void unwatch_fd(int fd) = 0;

  /// Monotonic milliseconds on this executor's clock.
  [[nodiscard]] virtual std::uint64_t now_ms_exec() const = 0;
};

/// Completion for the async send surface: the full (or head-only, for
/// streaming) response, always delivered exactly once, on the executor's
/// loop thread when an executor was supplied and the transport supports
/// asynchrony — otherwise inline before the async call returns.
using SendCallback = std::function<void(HttpResponse)>;

/// Receiver side of a streaming fetch (send_streaming): the response head
/// arrives first, then body bytes chunk by chunk as the wire produces
/// them. Returning false from either callback cancels the transfer (the
/// transport stops reading and tears the connection down); that is the
/// caller's choice, never counted as a failure of the destination. The
/// sink's callbacks run on the sending thread, strictly ordered: one
/// on_head, then zero or more on_chunk.
class ChunkSink {
public:
  virtual ~ChunkSink() = default;

  /// Status + headers, body not yet read (the head's own body fields are
  /// empty). Return false to skip the body.
  virtual bool on_head(const HttpResponse& head) = 0;
  /// One slab of body bytes (shared, immutable). Return false to cancel.
  virtual bool on_chunk(core::Chunk chunk) = 0;
};

/// Synchronous request/response transport keyed by string addresses.
class Transport {
public:
  virtual ~Transport() = default;

  /// Deliver `request` to `to` and return the response. Unreachable or
  /// unknown destinations yield a synthesized 504 Gateway Timeout — the
  /// caller never sees a transport exception.
  virtual HttpResponse send(const Address& from, const Address& to,
                            const HttpRequest& request) = 0;

  /// Like send(), but the response body is delivered incrementally to
  /// `sink` while it arrives; the returned response is the head (empty
  /// body). Completion of this call means the body was fully delivered —
  /// unless a callback cancelled, or the returned status is a transport
  /// failure synthesized after delivery began (a mid-body upstream death;
  /// the sink saw a prefix that will never complete). The base
  /// implementation adapts send(): buffered, then replayed through the
  /// sink — message-oriented transports (SimNet) and fault decorators
  /// inherit correct if non-streaming semantics.
  virtual HttpResponse send_streaming(const Address& from, const Address& to,
                                      const HttpRequest& request,
                                      ChunkSink& sink) {
    HttpResponse response = send(from, to, request);
    const core::ChunkedBody body = response.take_body_chunks();
    if (!sink.on_head(response)) return response;
    for (const core::Chunk& chunk : body.chunks()) {
      if (!sink.on_chunk(chunk)) break;
    }
    return response;
  }

  /// Asynchronous send: deliver `request` to `to` and hand the response to
  /// `done` without blocking the calling thread, using `exec` for timers
  /// and fd readiness. `done` fires exactly once. Transports that have no
  /// native async path (SimNet, decorators over message-oriented inners)
  /// complete inline via the synchronous send() before returning — callers
  /// must tolerate re-entrant completion. Passing a null `exec` always
  /// selects the synchronous fallback.
  virtual void send_async(const Address& from, const Address& to,
                          const HttpRequest& request, Executor* exec,
                          SendCallback done) {
    (void)exec;
    // idicn-analysis: allow(*): sync fallback adapter — message-oriented transports complete inline; loop-native transports override this method
    done(send(from, to, request));
  }

  /// Asynchronous streaming send: like send_streaming(), completing via
  /// `done` with the response head after the body was delivered to `sink`.
  /// Same inline-fallback contract as send_async(). The sink is shared so
  /// asynchronous transports can hold it across loop turns.
  virtual void send_streaming_async(const Address& from, const Address& to,
                                    const HttpRequest& request,
                                    std::shared_ptr<ChunkSink> sink,
                                    Executor* exec, SendCallback done) {
    (void)exec;
    // idicn-analysis: allow(*): sync fallback adapter — message-oriented transports complete inline; loop-native transports override this method
    done(send_streaming(from, to, request, *sink));
  }

  /// Deliver to every reachable member of `group` (except `from`) and
  /// collect the responses. Transports without multicast return {}.
  virtual std::vector<HttpResponse> multicast(const Address& from,
                                              const std::string& group,
                                              const HttpRequest& request) = 0;

  /// Monotonic milliseconds: the virtual clock on SimNet, a steady wall
  /// clock on socket transports. Used for cache freshness decisions.
  [[nodiscard]] virtual std::uint64_t now_ms() const = 0;
};

}  // namespace idicn::net
