// Per-destination RTT estimation for the multi-source fetch path.
//
// The estimator is the sensing half of MultiSourceFetcher (DESIGN.md §13):
// every clean request/response exchange feeds one RTT sample, and three
// derived figures drive fetch decisions:
//   * srtt/rttvar — RFC 6298 smoothed RTT and variance, integer µs math
//     (srtt ← 7/8·srtt + 1/8·r, rttvar ← 3/4·rttvar + 1/4·|srtt−r|) so a
//     sample sequence maps to exact, test-assertable values.
//   * quantile_us(q) — an order statistic over a sliding window of recent
//     samples (default 64). The hedge timer arms at the p95: a request
//     older than 95% of recent exchanges is a straggler worth duplicating.
//   * backoff shift — Karn's algorithm. Exchanges that were retransmitted,
//     hedged-over, or cancelled are *ambiguous*: their timing measures the
//     race, not the path, so they contribute no sample; instead each
//     on_retransmit() doubles the RTO and the ranking RTT. The shift
//     clears on the next clean sample. This is what couples hedging to
//     source ranking — a replica that keeps losing hedge races looks
//     exponentially worse without ever delivering a measurement.
//
// Pure policy: no clock, no lock. The caller (MultiSourceFetcher) supplies
// timing and guards per-destination state with its own mutex; unit tests
// drive sample sequences directly and assert exact outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace idicn::runtime {

class RttEstimator {
 public:
  /// Assumed RTT for a destination with no samples yet: optimistic enough
  /// that new replicas get explored, pessimistic enough that a measured
  /// fast replica outranks an unknown one.
  static constexpr std::uint64_t kInitialRttUs = 50'000;
  /// RTO floor and ceiling, applied after the Karn shift.
  static constexpr std::uint64_t kMinRtoUs = 20'000;
  static constexpr std::uint64_t kMaxRtoUs = 10'000'000;
  /// RFC 6298 clock granularity G.
  static constexpr std::uint64_t kGranularityUs = 1'000;
  static constexpr int kMaxBackoffShift = 6;  ///< Karn doubling cap (×64)

  struct Options {
    std::size_t window = 64;  ///< quantile ring capacity
  };

  RttEstimator() : RttEstimator(Options{}) {}
  explicit RttEstimator(Options options);

  /// One clean (unambiguous) exchange took `rtt_us`. Updates srtt/rttvar,
  /// appends to the quantile window, and clears the Karn backoff shift.
  void on_sample(std::uint64_t rtt_us);

  /// An ambiguous exchange: the request was retransmitted, hedged over, or
  /// cancelled, so its timing is not a path measurement (Karn's rule).
  /// Doubles the backoff shift (capped); records no sample.
  void on_retransmit();

  [[nodiscard]] bool has_sample() const noexcept { return samples_seen_ > 0; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_seen_; }
  /// Smoothed RTT in µs; kInitialRttUs before the first sample.
  [[nodiscard]] std::uint64_t srtt_us() const noexcept;
  [[nodiscard]] std::uint64_t rttvar_us() const noexcept { return rttvar_us_; }
  [[nodiscard]] int backoff_shift() const noexcept { return backoff_shift_; }

  /// Retransmission timeout: (srtt + max(4·rttvar, G)) · 2^shift, clamped
  /// to [min_rto, max_rto].
  [[nodiscard]] std::uint64_t rto_us() const noexcept;

  /// Order statistic over the sample window: the smallest recent sample
  /// ≥ fraction `q` of the window (index ⌈q·n⌉−1 of the sorted window).
  /// kInitialRttUs when no samples exist. q is clamped to (0, 1].
  [[nodiscard]] std::uint64_t quantile_us(double q) const;

  /// RTT used to *rank* this destination against its replicas:
  /// (srtt or initial_rtt) · 2^shift. The Karn shift makes losing hedge
  /// races exponentially expensive in the ranking even though cancelled
  /// exchanges never produce a sample.
  [[nodiscard]] std::uint64_t ranking_rtt_us() const noexcept;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  std::uint64_t srtt_us_ = 0;
  std::uint64_t rttvar_us_ = 0;
  int backoff_shift_ = 0;
  std::size_t samples_seen_ = 0;
  std::vector<std::uint64_t> ring_;  ///< last `window` samples, insertion order
  std::size_t ring_next_ = 0;        ///< next overwrite position once full
};

}  // namespace idicn::runtime
