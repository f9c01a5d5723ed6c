#include "runtime/timer_wheel.hpp"

#include <algorithm>

namespace idicn::runtime {

TimerWheel::TimerWheel(std::uint64_t tick_ms, std::size_t slots, std::uint64_t start_ms)
    : tick_ms_(tick_ms == 0 ? 1 : tick_ms),
      buckets_(slots == 0 ? 1 : slots),
      now_ms_(start_ms),
      current_tick_(start_ms / tick_ms_) {}

TimerWheel::Bucket& TimerWheel::bucket_for(std::uint64_t deadline_ms,
                                           std::uint64_t& rounds) {
  // Ceil to the next tick so a timer never fires early. A deadline on the
  // current tick (a zero delay scheduled exactly on a tick boundary) goes
  // to the next one: advance_to() never revisits the current bucket before
  // a full revolution.
  const std::uint64_t deadline_tick = (deadline_ms + tick_ms_ - 1) / tick_ms_;
  const std::uint64_t ticks_out =
      deadline_tick > current_tick_ ? deadline_tick - current_tick_ : 1;
  rounds = ticks_out / buckets_.size();
  return buckets_[(current_tick_ + ticks_out) % buckets_.size()];
}

TimerWheel::TimerId TimerWheel::schedule(std::uint64_t delay_ms, Callback callback) {
  const TimerId id = next_id_++;
  Entry entry;
  entry.id = id;
  entry.deadline_ms = now_ms_ + delay_ms;
  entry.callback = std::move(callback);

  std::uint64_t rounds = 0;
  Bucket& bucket = bucket_for(entry.deadline_ms, rounds);
  entry.rounds = rounds;
  bucket.push_front(std::move(entry));
  entries_.emplace(id, std::make_pair(
                           static_cast<std::size_t>(&bucket - buckets_.data()),
                           bucket.begin()));
  deadlines_.insert(now_ms_ + delay_ms);
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) {
    // Mid-advance: the timer may be extracted and awaiting its callback. A
    // cancel must still win (a close handler disarming its sibling timer
    // due the same tick), so disarm it in flight.
    return in_flight_.erase(id) == 1;
  }
  const auto [slot, position] = it->second;
  deadlines_.erase(deadlines_.find(position->deadline_ms));
  buckets_[slot].erase(position);
  entries_.erase(it);
  return true;
}

void TimerWheel::advance_to(std::uint64_t now_ms) {
  if (now_ms <= now_ms_) return;
  const std::uint64_t target_tick = now_ms / tick_ms_;

  // Collect everything due, bucket by bucket, then fire outside the wheel
  // structures so callbacks can schedule()/cancel() freely.
  std::vector<Entry> due;
  // Visiting more ticks than there are buckets revisits buckets — one full
  // sweep suffices then.
  const std::uint64_t steps =
      std::min<std::uint64_t>(target_tick - current_tick_, buckets_.size());
  for (std::uint64_t step = 1; step <= steps; ++step) {
    Bucket& bucket = buckets_[(current_tick_ + step) % buckets_.size()];
    for (auto it = bucket.begin(); it != bucket.end();) {
      if (it->deadline_ms > now_ms) {
        // Either a later round, or (after a long sleep) a wrapped slot we
        // are passing early: decrement rounds at most once per sweep.
        if (it->rounds > 0) --it->rounds;
        ++it;
        continue;
      }
      entries_.erase(it->id);
      deadlines_.erase(deadlines_.find(it->deadline_ms));
      in_flight_.insert(it->id);
      due.push_back(std::move(*it));
      it = bucket.erase(it);
    }
  }
  current_tick_ = target_tick;
  now_ms_ = now_ms;

  // Deadline order; ids (monotonic per schedule()) break ties so same-tick
  // timers fire in schedule order — deterministic, and a timer scheduled
  // first can cancel a later sibling before it runs.
  std::sort(due.begin(), due.end(), [](const Entry& a, const Entry& b) {
    return a.deadline_ms != b.deadline_ms ? a.deadline_ms < b.deadline_ms
                                          : a.id < b.id;
  });
  for (Entry& entry : due) {
    // A callback earlier in this advance may have cancelled this timer.
    if (in_flight_.erase(entry.id) == 1) entry.callback();
  }
}

std::optional<std::uint64_t> TimerWheel::next_deadline_ms() const {
  if (deadlines_.empty()) return std::nullopt;
  return *deadlines_.begin();
}

}  // namespace idicn::runtime
