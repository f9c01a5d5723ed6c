// Upstream fault-tolerance primitives: retry backoff, retry budget, and
// per-destination circuit breaking.
//
// The runtime's upstream path (SocketNet → AsyncHttpClient → TCP) treats
// every failure as data, but until this layer it reacted to failures
// naively: each send paid the full connect/IO timeout against a dead
// destination and reconnect storms could amplify overload. The three
// classes here are the policy pieces SocketNet's send envelope composes
// (DESIGN.md §"Failure model & degradation"):
//   * RetryPolicy   — capped exponential backoff with *full jitter*
//                     (delay ~ Uniform[0, min(cap, base·2^attempt)]), a
//                     seeded deterministic RNG, and an overall deadline so
//                     a send's retries cannot outlive the caller's patience.
//                     Backoff is a timer on the send's loop
//                     (schedule_backoff), never a sleeping thread.
//   * RetryBudget   — a token bucket that couples retry volume to request
//                     volume: each first attempt deposits a fraction of a
//                     token, each retry withdraws a whole one. Under a hard
//                     outage the budget empties and retries stop, so the
//                     retry layer cannot multiply offered load.
//   * CircuitBreaker — the classic closed → open → half-open machine per
//                     destination. After `failure_threshold` consecutive
//                     failures the breaker opens and calls fast-fail
//                     (no dial, no timeout burn) for `open_ms`; then it
//                     half-opens and admits a bounded number of probes;
//                     probe success re-closes, probe failure re-opens.
//
// All three are thread-safe: SocketNet is shared by every proxy worker, so
// successes and failures for one destination arrive from many threads.
#pragma once

#include <cstdint>
#include <functional>
#include <random>

#include "core/sync.hpp"
#include "net/transport.hpp"

namespace idicn::runtime {

/// Capped exponential backoff with full jitter and a seeded RNG.
class RetryPolicy {
 public:
  struct Options {
    int max_attempts = 3;  ///< total tries per send, including the first
    std::uint64_t base_delay_ms = 25;   ///< backoff scale for retry #1
    std::uint64_t max_delay_ms = 1'000; ///< per-delay cap
    /// Retries (and their backoff) must fit in this window measured from the
    /// first attempt; 0 = unbounded.
    std::uint64_t overall_deadline_ms = 10'000;
    std::uint64_t seed = 0x1d1c4e75;  ///< jitter RNG seed (deterministic tests)
  };

  RetryPolicy() : RetryPolicy(Options{}) {}
  explicit RetryPolicy(Options options);

  /// Full-jitter delay before retry `attempt` (1 = the first retry):
  /// Uniform[0, min(max_delay, base_delay · 2^(attempt-1))].
  [[nodiscard]] std::uint64_t backoff_delay_ms(int attempt)
      IDICN_EXCLUDES(mutex_);

  /// True when a retry whose backoff is `delay_ms` still fits the overall
  /// deadline, given `elapsed_ms` already spent on this send.
  [[nodiscard]] bool within_deadline(std::uint64_t elapsed_ms,
                                     std::uint64_t delay_ms) const noexcept;

  /// Non-blocking backoff: arm a one-shot timer on `exec` that runs
  /// `resume` after `delay_ms` (0 ⇒ still deferred one timer dispatch, so
  /// the caller's stack unwinds first). Returns the timer id, cancellable
  /// via Executor::cancel.
  static net::Executor::TaskId schedule_backoff(net::Executor& exec,
                                                std::uint64_t delay_ms,
                                                std::function<void()> resume);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  mutable core::sync::Mutex mutex_;
  std::mt19937_64 rng_ IDICN_GUARDED_BY(mutex_);
};

/// Token bucket coupling retry volume to request volume so retries cannot
/// amplify an overload: first attempts deposit `tokens_per_request`, each
/// retry withdraws 1.0. An empty bucket means "shed the retry".
class RetryBudget {
 public:
  struct Options {
    double tokens_per_request = 0.1;  ///< deposit per first attempt
    double max_tokens = 100.0;        ///< bucket cap
    double initial_tokens = 10.0;     ///< grace for cold starts
  };

  RetryBudget() : RetryBudget(Options{}) {}
  explicit RetryBudget(Options options);

  /// A first attempt is being made: deposit the per-request fraction.
  void on_attempt() IDICN_EXCLUDES(mutex_);
  /// Withdraw one token for a retry; false (and no withdrawal) when the
  /// bucket lacks a whole token — the caller must not retry.
  [[nodiscard]] bool try_spend() IDICN_EXCLUDES(mutex_);

  [[nodiscard]] double tokens() const IDICN_EXCLUDES(mutex_);

 private:
  Options options_;
  mutable core::sync::Mutex mutex_;
  double tokens_ IDICN_GUARDED_BY(mutex_);
};

/// Per-destination circuit breaker: closed → open → half-open with probes.
class CircuitBreaker {
 public:
  struct Options {
    int failure_threshold = 5;     ///< consecutive failures that open
    std::uint64_t open_ms = 1'000; ///< fast-fail window before half-open
    int half_open_max_probes = 1;  ///< concurrent probes while half-open
    int half_open_successes = 1;   ///< probe successes that re-close
  };

  enum class State : std::uint8_t { Closed, Open, HalfOpen };

  CircuitBreaker() : CircuitBreaker(Options{}) {}
  explicit CircuitBreaker(Options options);

  /// Gate a call at `now_ms`. Closed: always true. Open: false until the
  /// cooldown elapses, at which point the breaker half-opens and this call
  /// becomes the first probe. HalfOpen: true while probe slots remain.
  [[nodiscard]] bool allow(std::uint64_t now_ms) IDICN_EXCLUDES(mutex_);

  /// Record the outcome of an allowed call.
  void record_success(std::uint64_t now_ms) IDICN_EXCLUDES(mutex_);
  void record_failure(std::uint64_t now_ms) IDICN_EXCLUDES(mutex_);

  /// Observer view (reflects the cooldown: an Open breaker whose window
  /// elapsed reports HalfOpen even before the next allow()).
  [[nodiscard]] State state(std::uint64_t now_ms) const IDICN_EXCLUDES(mutex_);
  /// Milliseconds until an Open breaker admits a probe (0 when not Open) —
  /// the Retry-After hint for fast-fail responses.
  [[nodiscard]] std::uint64_t retry_after_ms(std::uint64_t now_ms) const
      IDICN_EXCLUDES(mutex_);

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  /// Move Open → HalfOpen once the cooldown has elapsed.
  void advance_cooldown(std::uint64_t now_ms) IDICN_REQUIRES(mutex_);

  Options options_;
  mutable core::sync::Mutex mutex_;
  State state_ IDICN_GUARDED_BY(mutex_) = State::Closed;
  int consecutive_failures_ IDICN_GUARDED_BY(mutex_) = 0;
  std::uint64_t opened_at_ms_ IDICN_GUARDED_BY(mutex_) = 0;
  int probes_in_flight_ IDICN_GUARDED_BY(mutex_) = 0;
  int probe_successes_ IDICN_GUARDED_BY(mutex_) = 0;
};

}  // namespace idicn::runtime
