// Congestion-aware multi-source fetch: RTT-ranked replica selection,
// hedged requests, and parallel range-fetch with per-range failover.
//
// The paper's metalink metadata names *multiple* sources per object, but
// until this layer the proxy fetched from exactly one upstream at a time —
// a single slow or flapping replica dictated the MISS-path tail. The
// fetcher turns the source list into a race that stays bounded under
// faults (DESIGN.md §13):
//
//   * Ranking — per-destination RttEstimator (SRTT/p95, Karn backoff) and
//     CircuitBreaker order the candidates; breaker-open sources sort last
//     and are never dialed: an attempt aimed at one is refused with
//     nothing sent, so a fetch whose every source is open completes with
//     a 504 until a breaker's cooldown admits a probe.
//   * Hedging — if the best source has not produced a response head after
//     its p95 RTT (shifted by Karn backoff), the request is duplicated to
//     the next-best replica. First 2xx head wins; the loser's sink refuses
//     the head, which cancels the transfer through the transport's abort
//     path. Hedges draw whole tokens from a Finagle-style RetryBudget that
//     first attempts only trickle into — and real failures *also* burn
//     tokens — so hedging self-disables when the budget is burning on
//     genuine faults. Losing a hedge race feeds Karn's on_retransmit to
//     the straggler (an ambiguous exchange measures the race, not the
//     path), so its ranking decays exponentially and the hedge delay backs
//     off without ever needing a sample from the slow replica.
//   * Parallel range-fetch — with ≥2 sources and max_parallel_ranges ≥ 2
//     (1 fetches every object in one stream), large-object fetches probe
//     the best source with `Range: bytes=0-(probe-1)`. A 206 reveals the
//     total size via Content-Range; the remainder is split into contiguous
//     legs fetched from the other replicas in parallel, re-joined in order
//     (so incremental verification downstream still sees the bytes in
//     sequence) behind a synthesized 200 head. A leg that errors or hits
//     an open breaker fails over to the next surviving source. A 200 reply
//     means the upstream does not speak ranges — the response passes
//     through untouched (incremental deployability: pre-range replicas
//     keep working, they just don't parallelize).
//   * Windows — a CUBIC CubicWindow per destination bounds in-flight
//     requests per upstream. Hedges and range legs *require* window
//     capacity; the primary attempt prefers sources with capacity but is
//     never blocked by the window (the proxy bounds its own concurrency) —
//     an over-budget primary is admitted.
//
// Each destination's RttEstimator, CubicWindow and CircuitBreaker run at
// their class defaults; Options holds only the hedging and range settings.
//
// Threading: one fetch's callbacks all run on the caller's executor thread
// (or inline for synchronous transports); the fetcher object itself is
// shared across workers, so per-destination state lives behind mutex_ and
// per-fetch race state behind the fetch's own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sync.hpp"
#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/congestion_window.hpp"
#include "runtime/retry.hpp"
#include "runtime/rtt_estimator.hpp"

namespace idicn::runtime {

namespace detail {
struct MultiFetchState;
}  // namespace detail

class MultiSourceFetcher {
 public:
  /// Straggler threshold: hedge once the best source has been silent for
  /// this quantile of its recent RTTs.
  static constexpr double kHedgeQuantile = 0.95;
  /// Ceiling of the hedge delay (after the Karn 2^shift penalty).
  static constexpr std::uint64_t kHedgeMaxDelayMs = 2'000;

  struct Options {
    // --- hedging ---
    bool hedging_enabled = true;
    std::uint64_t hedge_min_delay_ms = 5;
    /// Hedge delay before the destination has any RTT samples.
    std::uint64_t initial_hedge_delay_ms = 25;
    /// Tokens hedges draw from; first attempts deposit tokens_per_request,
    /// real failures burn whole tokens alongside hedges.
    RetryBudget::Options hedge_budget;

    // --- parallel range fetch ---
    /// Total legs per object including the probe (≥2 enables splitting,
    /// 1 fetches in one stream).
    std::size_t max_parallel_ranges = 3;
    /// Bytes asked of the probe leg; also the minimum tail worth splitting
    /// across replicas rather than fetching in one follow-up leg.
    std::uint64_t range_probe_bytes = 128 * 1024;
  };

  struct Stats {
    core::sync::RelaxedCounter fetches;
    core::sync::RelaxedCounter hedges_sent;
    core::sync::RelaxedCounter hedge_wins;
    core::sync::RelaxedCounter hedges_suppressed;  ///< budget/window denied
    core::sync::RelaxedCounter source_failovers;   ///< serial next-source moves
    core::sync::RelaxedCounter range_fetches;      ///< objects fetched split
    core::sync::RelaxedCounter range_failovers;    ///< legs re-aimed after faults
  };

  /// Outcome metadata delivered alongside the final head: which replica
  /// actually produced it (the address a downstream cache should
  /// revalidate against), and how the race went.
  struct Result {
    /// Destination whose head completed the fetch. Empty when no source
    /// ever produced a head (pure transport failure).
    net::Address source;
    bool hedge_won = false;    ///< a hedged duplicate produced the winner
    bool range_split = false;  ///< the body arrived as parallel range legs
    std::size_t attempts = 0;  ///< dials made (primary + hedges + failovers)
  };
  using FetchCallback =
      std::function<void(net::HttpResponse head, const Result& result)>;

  /// Observer view of one destination's learned state.
  struct SourceSnapshot {
    net::Address address;
    std::uint64_t srtt_us = 0;
    std::uint64_t rtt_p95_us = 0;
    int backoff_shift = 0;
    double window = 0.0;
    std::size_t in_flight = 0;
    CircuitBreaker::State breaker = CircuitBreaker::State::Closed;
  };

  explicit MultiSourceFetcher(net::Transport* net);
  MultiSourceFetcher(net::Transport* net, Options options);
  ~MultiSourceFetcher();

  MultiSourceFetcher(const MultiSourceFetcher&) = delete;
  MultiSourceFetcher& operator=(const MultiSourceFetcher&) = delete;

  /// Fetch `request` from the best of `sources`, streaming the winning
  /// response into `sink` and completing via `done` exactly once with the
  /// final head (a synthesized 5xx when every source failed) plus the race
  /// Result. `exec` powers hedge timers and pass-through async sends; with
  /// a null executor the fetch degrades to a synchronous serial ladder (no
  /// hedging — there is no timer to arm — but ranking, windows, breakers
  /// and range splitting still apply). The caller must not set a Range
  /// header when range splitting is desired; a caller-supplied Range
  /// disables splitting and is forwarded verbatim.
  void fetch_from_best(const net::Address& from,
                       std::vector<net::Address> sources,
                       net::HttpRequest request,
                       std::shared_ptr<net::ChunkSink> sink,
                       net::Executor* exec, FetchCallback done)
      IDICN_EXCLUDES(mutex_);

  /// Rank `sources` best-first by effective RTT (srtt · 2^karn_shift, the
  /// explore default for unmeasured destinations) with breaker-open
  /// destinations last. Deterministic; ties keep caller order.
  [[nodiscard]] std::vector<net::Address> rank(std::vector<net::Address> sources)
      IDICN_EXCLUDES(mutex_);

  [[nodiscard]] std::vector<SourceSnapshot> snapshot() IDICN_EXCLUDES(mutex_);
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] double hedge_tokens() { return hedge_budget_.tokens(); }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  friend struct detail::MultiFetchState;

  /// Per-destination learned state. unique_ptr-held so references stay
  /// stable across map rehashes.
  struct DestState {
    RttEstimator est;
    CubicWindow window;
    std::size_t in_flight = 0;
    CircuitBreaker breaker;  // has its own lock; always nested inside mutex_
  };

  DestState& dest_locked(const net::Address& address) IDICN_REQUIRES(mutex_);

  // Selection helpers for the fetch state machine. pick_primary admits the
  // best non-open source (preferring window capacity);
  // pick_hedge/pick_leg_source gate extra aggression on capacity. With
  // every breaker open, pick_primary and pick_leg_source still name a
  // source, and gate() refuses the dial.
  std::size_t pick_primary(const std::vector<net::Address>& ranked)
      IDICN_EXCLUDES(mutex_);
  std::optional<std::size_t> pick_hedge(const std::vector<net::Address>& ranked,
                                        const std::vector<bool>& tried)
      IDICN_EXCLUDES(mutex_);
  std::size_t pick_leg_source(const std::vector<net::Address>& ranked,
                              std::size_t& cursor) IDICN_EXCLUDES(mutex_);
  /// Breaker admission for an actual dial (consumes half-open probe slots).
  bool gate(const net::Address& address) IDICN_EXCLUDES(mutex_);
  std::uint64_t hedge_delay_ms(const net::Address& address)
      IDICN_EXCLUDES(mutex_);

  // Per-destination bookkeeping: one note_start per dialed attempt/leg,
  // balanced by exactly one of note_clean / note_ambiguous / note_failure.
  void note_start(const net::Address& address) IDICN_EXCLUDES(mutex_);
  void note_clean(const net::Address& address, std::uint64_t rtt_us,
                  std::uint64_t now_ms) IDICN_EXCLUDES(mutex_);
  void note_ambiguous(const net::Address& address) IDICN_EXCLUDES(mutex_);
  void note_failure(const net::Address& address, std::uint64_t now_ms)
      IDICN_EXCLUDES(mutex_);
  /// Karn penalty on a hedged-over primary (no in-flight movement).
  void note_straggler(const net::Address& address) IDICN_EXCLUDES(mutex_);

  net::Transport* net_;
  Options options_;
  RetryBudget hedge_budget_;
  mutable core::sync::Mutex mutex_;
  std::unordered_map<net::Address, std::unique_ptr<DestState>> dests_
      IDICN_GUARDED_BY(mutex_);
  Stats stats_;
};

}  // namespace idicn::runtime
