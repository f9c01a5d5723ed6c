// CUBIC-style per-destination congestion window for upstream fetches.
//
// The acting half of MultiSourceFetcher's per-destination state (DESIGN.md
// §13): the window bounds how many *extra* requests (hedges, parallel
// range legs) the fetcher is willing to aim at one upstream at a time, so
// multi-source aggression cannot pile onto a struggling replica. The
// growth/decrease laws follow RFC 8312 (TCP CUBIC), with requests standing
// in for segments:
//   * slow start  — below ssthresh the window grows by one per completed
//     request (doubling per window's worth of acks).
//   * congestion avoidance — after the first loss, growth follows the
//     cubic W(t) = C·(t−K)³ + w_max around the last-loss plateau w_max,
//     with K = ∛(w_max·(1−β)/C): fast recovery toward the old operating
//     point, cautious probing beyond it.
//   * loss — multiplicative decrease to β·w (β = 0.7), a gentler cut than
//     Reno's 0.5 (CUBIC's premise: paths are long, recovery is slow).
//
// Pure policy like RttEstimator: the caller supplies now_ms (so tests run
// on a virtual clock) and provides locking. Fractional window state keeps
// sub-unit growth exact; allowance() floors it for admission decisions.
#pragma once

#include <cstddef>
#include <cstdint>

namespace idicn::runtime {

class CubicWindow {
 public:
  static constexpr double kMinWindow = 1.0;  ///< never choke below one request

  struct Options {
    double c = 0.4;                  ///< CUBIC aggressiveness constant
    double beta = 0.7;               ///< multiplicative decrease factor
    double initial_window = 2.0;     ///< requests in flight at cold start
    double max_window = 64.0;        ///< per-destination concurrency cap
    double initial_ssthresh = 32.0;  ///< slow-start exit before first loss
  };

  CubicWindow() : CubicWindow(Options{}) {}
  explicit CubicWindow(Options options);

  /// A request to this destination completed cleanly at `now_ms`.
  void on_ack(std::uint64_t now_ms);
  /// A request failed (transport error, 5xx, breaker-worthy): cut the
  /// window and open a new cubic epoch anchored at the old plateau.
  void on_loss(std::uint64_t now_ms);

  [[nodiscard]] double window() const noexcept { return window_; }
  /// Integral admission bound: ⌊window⌋, at least 1.
  [[nodiscard]] std::size_t allowance() const noexcept;
  [[nodiscard]] bool in_slow_start() const noexcept {
    return !epoch_active_ && window_ < ssthresh_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
  double window_;
  double ssthresh_;
  bool epoch_active_ = false;      ///< a cubic epoch exists (some loss seen
                                   ///  or slow start exited)
  double w_max_ = 0.0;             ///< plateau the cubic curves around
  double k_seconds_ = 0.0;         ///< time to regain w_max from the cut
  std::uint64_t epoch_start_ms_ = 0;
};

}  // namespace idicn::runtime
