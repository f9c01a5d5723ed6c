#include "runtime/rtt_estimator.hpp"

#include <algorithm>
#include <cmath>

namespace idicn::runtime {

RttEstimator::RttEstimator(Options options) : options_(options) {
  if (options_.window == 0) options_.window = 1;
  ring_.reserve(options_.window);
}

void RttEstimator::on_sample(std::uint64_t rtt_us) {
  if (samples_seen_ == 0) {
    // RFC 6298 §2.2: first measurement seeds SRTT = R, RTTVAR = R/2.
    srtt_us_ = rtt_us;
    rttvar_us_ = rtt_us / 2;
  } else {
    // §2.3, integer form: RTTVAR before SRTT, since it uses the old SRTT.
    const std::uint64_t abs_err =
        srtt_us_ > rtt_us ? srtt_us_ - rtt_us : rtt_us - srtt_us_;
    rttvar_us_ = (3 * rttvar_us_ + abs_err) / 4;
    srtt_us_ = (7 * srtt_us_ + rtt_us) / 8;
  }
  ++samples_seen_;
  backoff_shift_ = 0;  // Karn: a clean sample collapses the backoff
  if (ring_.size() < options_.window) {
    ring_.push_back(rtt_us);
  } else {
    ring_[ring_next_] = rtt_us;
    ring_next_ = (ring_next_ + 1) % options_.window;
  }
}

void RttEstimator::on_retransmit() {
  if (backoff_shift_ < kMaxBackoffShift) ++backoff_shift_;
}

std::uint64_t RttEstimator::srtt_us() const noexcept {
  return samples_seen_ > 0 ? srtt_us_ : kInitialRttUs;
}

std::uint64_t RttEstimator::rto_us() const noexcept {
  const std::uint64_t var_term =
      std::max<std::uint64_t>(4 * rttvar_us_, kGranularityUs);
  std::uint64_t rto = srtt_us() + var_term;
  // Shift with saturation: a capped shift of large values must clamp to
  // max_rto, not wrap.
  for (int i = 0; i < backoff_shift_; ++i) {
    if (rto > kMaxRtoUs) break;
    rto <<= 1;
  }
  return std::clamp(rto, kMinRtoUs, kMaxRtoUs);
}

std::uint64_t RttEstimator::quantile_us(double q) const {
  if (ring_.empty()) return kInitialRttUs;
  std::vector<std::uint64_t> sorted(ring_);
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.01, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

std::uint64_t RttEstimator::ranking_rtt_us() const noexcept {
  std::uint64_t rtt = srtt_us();
  for (int i = 0; i < backoff_shift_; ++i) {
    if (rtt > kMaxRtoUs) break;
    rtt <<= 1;
  }
  return rtt;
}

}  // namespace idicn::runtime
