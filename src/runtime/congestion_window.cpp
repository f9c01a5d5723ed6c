#include "runtime/congestion_window.hpp"

#include <algorithm>
#include <cmath>

namespace idicn::runtime {

CubicWindow::CubicWindow(Options options)
    : options_(options),
      window_(options.initial_window),
      ssthresh_(options.initial_ssthresh) {
  window_ = std::clamp(window_, kMinWindow, options_.max_window);
}

void CubicWindow::on_ack(std::uint64_t now_ms) {
  if (!epoch_active_) {
    if (window_ < ssthresh_) {
      // Slow start: one extra request per completed request.
      window_ = std::min(window_ + 1.0, options_.max_window);
      return;
    }
    // Slow start exhausted without a loss: open a cubic epoch plateaued
    // at the current window so further growth is the cautious cubic tail.
    epoch_active_ = true;
    w_max_ = window_;
    k_seconds_ = 0.0;
    epoch_start_ms_ = now_ms;
  }
  const double t =
      static_cast<double>(now_ms - epoch_start_ms_) / 1000.0 - k_seconds_;
  const double target = options_.c * t * t * t + w_max_;
  if (target > window_) {
    // RFC 8312 §4.1 per-ack growth: spread the climb to the cubic target
    // over one window's worth of acks.
    window_ += (target - window_) / window_;
  }
  window_ = std::clamp(window_, kMinWindow, options_.max_window);
}

void CubicWindow::on_loss(std::uint64_t now_ms) {
  w_max_ = window_;
  window_ = std::max(window_ * options_.beta, kMinWindow);
  ssthresh_ = window_;
  // K: how long the cubic takes to climb back from the cut to w_max.
  k_seconds_ = std::cbrt(w_max_ * (1.0 - options_.beta) / options_.c);
  epoch_start_ms_ = now_ms;
  epoch_active_ = true;
}

std::size_t CubicWindow::allowance() const noexcept {
  return static_cast<std::size_t>(std::max(1.0, std::floor(window_)));
}

}  // namespace idicn::runtime
