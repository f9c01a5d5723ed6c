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
// A transport implements one send primitive, send_streaming_async();
// send(), send_streaming() and send_async() are adapters over it.
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
/// thread. runtime::EventLoop implements this; a send given a null
/// Executor completes before returning instead. All methods must be
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

/// Completion of a send: the full (or head-only, for streaming) response,
/// always delivered exactly once.
using SendCallback = std::function<void(HttpResponse)>;

/// Receiver side of a streaming fetch: the response head arrives first,
/// then body bytes chunk by chunk as the wire produces them. Returning
/// false from either callback cancels the transfer (the transport stops
/// reading and tears the connection down); that is the caller's choice,
/// never counted as a failure of the destination. The sink's callbacks run
/// on the sending thread, strictly ordered: one on_head, then zero or more
/// on_chunk.
class ChunkSink {
public:
  virtual ~ChunkSink() = default;

  /// Status + headers, body not yet read (the head's own body fields are
  /// empty). Return false to skip the body.
  virtual bool on_head(const HttpResponse& head) = 0;
  /// One slab of body bytes (shared, immutable). Return false to cancel.
  virtual bool on_chunk(core::Chunk chunk) = 0;
};

/// Hand a buffered response to `sink` as if it had streamed: the head,
/// then the body chunk by chunk until the sink refuses. `response` keeps
/// the head; its body is moved out.
inline void replay_to_sink(HttpResponse& response, ChunkSink& sink) {
  const core::ChunkedBody body = response.take_body_chunks();
  if (!sink.on_head(response)) return;
  for (const core::Chunk& chunk : body.chunks()) {
    if (!sink.on_chunk(chunk)) return;
  }
}

/// Request/response transport keyed by string addresses.
class Transport {
public:
  virtual ~Transport() = default;

  /// The send primitive: deliver `request` to `to` and hand the response
  /// to `done`, which fires exactly once. Unreachable or unknown
  /// destinations yield a synthesized 504 Gateway Timeout — the caller
  /// never sees a transport exception.
  ///   * A null `sink` buffers the body into the response. Otherwise the
  ///     body flows to `sink` while it arrives and `done` gets the head
  ///     (empty body) once the body was delivered — unless a sink callback
  ///     cancelled, or the status is a transport failure synthesized after
  ///     delivery began (a mid-body upstream death; the sink saw a prefix
  ///     that will never complete). The sink is shared so asynchronous
  ///     transports can hold it across loop turns.
  ///   * A null `exec` means "complete before returning". Otherwise the
  ///     send uses `exec` for timers and fd readiness without blocking the
  ///     calling thread, and `done` fires on the executor's loop thread —
  ///     or inline before returning, for transports with no native async
  ///     path (SimNet): callers must tolerate re-entrant completion.
  virtual void send_streaming_async(const Address& from, const Address& to,
                                    const HttpRequest& request,
                                    std::shared_ptr<ChunkSink> sink,
                                    Executor* exec, SendCallback done) = 0;

  // The adapters below are virtual only so a decorator can observe each
  // form of call; implementations override the primitive alone.

  /// Buffered send that completes before returning.
  virtual HttpResponse send(const Address& from, const Address& to,
                            const HttpRequest& request) {
    HttpResponse response;
    send_streaming_async(
        from, to, request, nullptr, nullptr,
        [&response](HttpResponse r) { response = std::move(r); });
    return response;
  }

  /// Streaming send that completes before returning; the returned response
  /// is the head (empty body).
  virtual HttpResponse send_streaming(const Address& from, const Address& to,
                                      const HttpRequest& request,
                                      ChunkSink& sink) {
    HttpResponse head;
    // Non-owning: the send completes before `sink` goes out of scope.
    send_streaming_async(
        from, to, request, std::shared_ptr<ChunkSink>(&sink, [](ChunkSink*) {}),
        nullptr, [&head](HttpResponse r) { head = std::move(r); });
    return head;
  }

  /// Buffered send completing via `done` (see the primitive for `exec`).
  virtual void send_async(const Address& from, const Address& to,
                          const HttpRequest& request, Executor* exec,
                          SendCallback done) {
    send_streaming_async(from, to, request, nullptr, exec, std::move(done));
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
