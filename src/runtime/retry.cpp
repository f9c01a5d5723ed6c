#include "runtime/retry.hpp"

#include <algorithm>

namespace idicn::runtime {

// --- RetryPolicy -----------------------------------------------------------

RetryPolicy::RetryPolicy(Options options)
    : options_(options), rng_(options.seed) {}

std::uint64_t RetryPolicy::backoff_delay_ms(int attempt) {
  if (attempt < 1) attempt = 1;
  // base · 2^(attempt-1), saturating well below overflow before the cap.
  std::uint64_t ceiling = options_.base_delay_ms;
  for (int i = 1; i < attempt && ceiling < options_.max_delay_ms; ++i) {
    ceiling *= 2;
  }
  ceiling = std::min(ceiling, options_.max_delay_ms);
  if (ceiling == 0) return 0;
  const core::sync::MutexLock lock(mutex_);
  return std::uniform_int_distribution<std::uint64_t>(0, ceiling)(rng_);
}

bool RetryPolicy::within_deadline(std::uint64_t elapsed_ms,
                                  std::uint64_t delay_ms) const noexcept {
  if (options_.overall_deadline_ms == 0) return true;
  return elapsed_ms + delay_ms < options_.overall_deadline_ms;
}

net::Executor::TaskId RetryPolicy::schedule_backoff(
    net::Executor& exec, std::uint64_t delay_ms, std::function<void()> resume) {
  return exec.schedule(delay_ms, std::move(resume));
}

// --- RetryBudget -----------------------------------------------------------

RetryBudget::RetryBudget(Options options)
    : options_(options),
      tokens_(std::min(options.initial_tokens, options.max_tokens)) {}

void RetryBudget::on_attempt() {
  const core::sync::MutexLock lock(mutex_);
  tokens_ = std::min(tokens_ + options_.tokens_per_request, options_.max_tokens);
}

bool RetryBudget::try_spend() {
  const core::sync::MutexLock lock(mutex_);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::tokens() const {
  const core::sync::MutexLock lock(mutex_);
  return tokens_;
}

// --- CircuitBreaker --------------------------------------------------------

CircuitBreaker::CircuitBreaker(Options options) : options_(options) {}

void CircuitBreaker::advance_cooldown(std::uint64_t now_ms) {
  if (state_ == State::Open && now_ms >= opened_at_ms_ + options_.open_ms) {
    state_ = State::HalfOpen;
    probes_in_flight_ = 0;
    probe_successes_ = 0;
  }
}

bool CircuitBreaker::allow(std::uint64_t now_ms) {
  const core::sync::MutexLock lock(mutex_);
  advance_cooldown(now_ms);
  switch (state_) {
    case State::Closed:
      return true;
    case State::Open:
      return false;
    case State::HalfOpen:
      if (probes_in_flight_ >= options_.half_open_max_probes) return false;
      ++probes_in_flight_;
      return true;
  }
  return true;  // unreachable
}

void CircuitBreaker::record_success(std::uint64_t now_ms) {
  const core::sync::MutexLock lock(mutex_);
  advance_cooldown(now_ms);
  switch (state_) {
    case State::Closed:
      consecutive_failures_ = 0;
      break;
    case State::Open:
      // A straggler from before the breaker opened; the cooldown stands.
      break;
    case State::HalfOpen:
      if (probes_in_flight_ > 0) --probes_in_flight_;
      if (++probe_successes_ >= options_.half_open_successes) {
        state_ = State::Closed;
        consecutive_failures_ = 0;
        probe_successes_ = 0;
      }
      break;
  }
}

void CircuitBreaker::record_failure(std::uint64_t now_ms) {
  const core::sync::MutexLock lock(mutex_);
  advance_cooldown(now_ms);
  switch (state_) {
    case State::Closed:
      if (++consecutive_failures_ >= options_.failure_threshold) {
        state_ = State::Open;
        opened_at_ms_ = now_ms;
      }
      break;
    case State::Open:
      break;  // already fast-failing; keep the original cooldown
    case State::HalfOpen:
      // The probe failed: re-open for a fresh cooldown.
      state_ = State::Open;
      opened_at_ms_ = now_ms;
      consecutive_failures_ = options_.failure_threshold;
      break;
  }
}

CircuitBreaker::State CircuitBreaker::state(std::uint64_t now_ms) const {
  const core::sync::MutexLock lock(mutex_);
  if (state_ == State::Open && now_ms >= opened_at_ms_ + options_.open_ms) {
    return State::HalfOpen;
  }
  return state_;
}

std::uint64_t CircuitBreaker::retry_after_ms(std::uint64_t now_ms) const {
  const core::sync::MutexLock lock(mutex_);
  if (state_ != State::Open) return 0;
  const std::uint64_t reopen_at = opened_at_ms_ + options_.open_ms;
  return reopen_at > now_ms ? reopen_at - now_ms : 0;
}

}  // namespace idicn::runtime
