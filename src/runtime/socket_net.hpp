// Real-socket net::Transport.
//
// SocketNet maps logical idICN addresses ("proxy0", "nrs.idicn.org", …) to
// TCP endpoints (always 127.0.0.1:<port> in this prototype) and carries
// every send over loop-native keep-alive AsyncHttpClients. Existing hosts
// built against net::Transport — Proxy, ReverseProxy, Client, the NRS —
// run over it unmodified.
//
// Connections are pooled per destination and per executor (a client is
// confined to its loop thread). A send given an executor runs there; a
// send without one (it must complete before returning) borrows a loop that
// SocketNet owns, pumps it on the calling thread until the send settles,
// and hands it back — so concurrent blocking senders get independent
// loops and connections instead of serializing, and each lent loop keeps
// its own keep-alive pool. Pooled connections the peer closed while idle
// are detected on borrow (a zero-byte MSG_PEEK probe) and discarded rather
// than surfacing a spurious failure or replaying a stale buffered response.
//
// Failure semantics match SimNet: an unknown or unreachable destination
// yields a synthesized 504 Gateway Timeout, never an exception. On top of
// that sits the fault-tolerance layer (DESIGN.md §"Failure model &
// degradation"), one envelope for every form of call:
//   * transport failures are retried with RetryPolicy's full-jitter capped
//     exponential backoff, bounded per send by max_attempts and the overall
//     deadline (each try's connect/IO timeouts are the per-try deadline),
//     and globally by a RetryBudget so retries cannot amplify overload;
//     backoff is a timer on the send's loop, never a sleeping thread;
//   * a buffered send answered 503 with a Retry-After hint is replayed no
//     earlier than the hint, under the same bounds;
//   * every destination gets a CircuitBreaker — after
//     `failure_threshold` consecutive transport failures the breaker opens
//     and sends fast-fail with a synthesized 503 + Retry-After instead of
//     burning the connect timeout, then half-opens and probes its way back.
//     A streaming caller's own refusal (its sink returns false: a hedge
//     loser, an error head it will not read) is not a transport failure:
//     the destination answered, so the breaker records a success and
//     send_failures does not move.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sync.hpp"
#include "net/transport.hpp"
#include "runtime/async_http_client.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/retry.hpp"

namespace idicn::runtime {

class ServerGroup;

/// Parse a delay-seconds Retry-After value (RFC 7231 §7.1.3, the only form
/// this runtime emits) to milliseconds; nullopt for HTTP-date or garbage —
/// callers fall back to the backoff curve. Values over a day are treated
/// as a refusal, not a hint.
[[nodiscard]] std::optional<std::uint64_t> parse_retry_after_ms(
    std::string_view value);

class SocketNet final : public net::Transport {
public:
  struct Options {
    AsyncHttpClient::Options client;
    /// Transport failures are retried with backoff; `retry.max_attempts = 1`
    /// sends once.
    RetryPolicy::Options retry;
    RetryBudget::Options budget;
    CircuitBreaker::Options breaker;
  };

  SocketNet();
  explicit SocketNet(Options options);
  ~SocketNet() override = default;

  SocketNet(const SocketNet&) = delete;
  SocketNet& operator=(const SocketNet&) = delete;

  /// Map `address` to host:port. Re-registering replaces the endpoint and
  /// drops its pooled connections.
  void register_endpoint(const net::Address& address, std::string host,
                         std::uint16_t port);
  /// Convenience: register a started ServerGroup (or HostServer) under its
  /// own address.
  void register_endpoint(const ServerGroup& server);
  /// Forget `address`; subsequent sends to it synthesize 504. Also forgets
  /// the destination's breaker state.
  void unregister_endpoint(const net::Address& address);

  /// Add `address` to `group` for multicast fan-out (idempotent).
  void join_group(const net::Address& address, const std::string& group);

  // net::Transport
  /// Streaming sends deliver body chunks to `sink` as the wire produces
  /// them, with one restriction on the envelope: retries stop the moment
  /// the sink has seen anything — a replay would deliver the prefix twice.
  /// A mid-body failure therefore surfaces as a 504 *after* the sink
  /// consumed a partial body; callers must treat an error head as "discard
  /// what you streamed". `done` fires exactly once on the loop thread
  /// (inline for the synthesized fast failures). A null `exec` pumps a lent
  /// loop on the calling thread, which may itself be some other loop's
  /// thread (a host publishing from its own loop).
  void send_streaming_async(const net::Address& from, const net::Address& to,
                            const net::HttpRequest& request,
                            std::shared_ptr<net::ChunkSink> sink,
                            net::Executor* exec,
                            net::SendCallback done) override;
  std::vector<net::HttpResponse> multicast(const net::Address& from,
                                           const std::string& group,
                                           const net::HttpRequest& request) override;
  [[nodiscard]] std::uint64_t now_ms() const override;

  struct Stats {
    std::uint64_t requests_sent = 0;
    /// Unknown endpoint or socket error; never a caller's sink refusal.
    std::uint64_t send_failures = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t retries = 0;             ///< backoff-delayed re-attempts
    std::uint64_t breaker_fast_fails = 0;  ///< 503s from an open breaker
    std::uint64_t stale_pool_drops = 0;    ///< dead pooled fds discarded
    /// Retries whose delay was stretched to a peer's Retry-After hint on
    /// a 503 (instead of the generic backoff curve).
    std::uint64_t retry_after_honored = 0;
  };
  [[nodiscard]] Stats stats() const IDICN_EXCLUDES(mutex_);

  /// Observer view of a destination's breaker (Closed when the destination
  /// has no breaker yet).
  [[nodiscard]] CircuitBreaker::State breaker_state(const net::Address& to) const
      IDICN_EXCLUDES(mutex_);

  /// What the caller's sink did during one streaming send: whether it saw
  /// a head (the point past which retrying would double-deliver) and
  /// whether it refused a callback (the caller ended the transfer).
  /// Public only so the .cpp's helper sink can name it.
  struct SinkProgress {
    bool delivered = false;
    bool refused = false;
  };

private:
  /// One in-flight async send's retry envelope (defined in the .cpp).
  struct AsyncSendState;

  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    /// Parked connections, per owning executor (an AsyncHttpClient is
    /// confined to its loop thread, so pools never mix executors). Parked
    /// clients are unwatched and timer-less — safe to destroy from any
    /// thread when the endpoint is replaced or forgotten.
    std::map<net::Executor*, std::vector<std::unique_ptr<AsyncHttpClient>>>
        async_idle;
  };

  /// The destination's breaker, created on first use (shared_ptr so callers
  /// operate on it outside the map lock; CircuitBreaker is thread-safe).
  std::shared_ptr<CircuitBreaker> breaker_for(const net::Address& to)
      IDICN_EXCLUDES(mutex_);

  /// A null-executor send: run the envelope on a lent loop, pumped on the
  /// calling thread until it settles; the response it settled with.
  net::HttpResponse send_on_lent_loop(std::shared_ptr<AsyncSendState> state)
      IDICN_EXCLUDES(mutex_);
  /// Front half of every send: the unknown-destination and breaker
  /// fast-fail gates, then the first attempt.
  void start_async_send(std::shared_ptr<AsyncSendState> state)
      IDICN_EXCLUDES(mutex_);
  /// One borrow → issue attempt on the state's executor.
  void async_attempt(std::shared_ptr<AsyncSendState> state)
      IDICN_EXCLUDES(mutex_);
  /// Attempt outcome: success completes, failure walks the retry ladder
  /// with timer-wheel backoff.
  void finish_async_attempt(std::shared_ptr<AsyncSendState> state,
                            std::optional<net::HttpResponse> head,
                            std::string error) IDICN_EXCLUDES(mutex_);

  /// Pooled clients owned by `exec`, with a borrow-time staleness probe.
  /// nullptr when `to` is unknown.
  std::unique_ptr<AsyncHttpClient> borrow_async(const net::Address& to,
                                                net::Executor* exec)
      IDICN_EXCLUDES(mutex_);
  void give_back_async(const net::Address& to, net::Executor* exec,
                       std::unique_ptr<AsyncHttpClient> client)
      IDICN_EXCLUDES(mutex_);

  Options options_;
  RetryPolicy retry_policy_;
  RetryBudget retry_budget_;
  mutable core::sync::Mutex mutex_;
  /// Loops no blocking sender holds right now. Declared before endpoints_
  /// so the pooled clients keyed by them are destroyed first.
  std::vector<std::unique_ptr<EventLoop>> lent_loops_ IDICN_GUARDED_BY(mutex_);
  std::map<net::Address, Endpoint> endpoints_ IDICN_GUARDED_BY(mutex_);
  std::map<std::string, std::vector<net::Address>> groups_ IDICN_GUARDED_BY(mutex_);
  std::map<net::Address, std::shared_ptr<CircuitBreaker>> breakers_
      IDICN_GUARDED_BY(mutex_);
  Stats stats_ IDICN_GUARDED_BY(mutex_);
};

// Out of line: Options' default member initializers only become usable once
// SocketNet is a complete type.
inline SocketNet::SocketNet() : SocketNet(Options{}) {}

}  // namespace idicn::runtime
