#include "net/fault_injector.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace idicn::net {

FaultInjector::FaultInjector(Transport* inner, Options options)
    : inner_(inner), options_(options), rng_(options.seed) {}

std::uint64_t FaultInjector::add_rule(Rule rule) {
  const core::sync::MutexLock lock(mutex_);
  const std::uint64_t id = next_rule_id_++;
  rules_.push_back(StoredRule{id, /*enabled=*/true, std::move(rule)});
  return id;
}

void FaultInjector::remove_rule(std::uint64_t id) {
  const core::sync::MutexLock lock(mutex_);
  std::erase_if(rules_, [id](const StoredRule& r) { return r.id == id; });
  std::erase_if(degradations_,
                [id](const StoredDegradation& d) { return d.id == id; });
}

void FaultInjector::set_enabled(std::uint64_t id, bool enabled) {
  const core::sync::MutexLock lock(mutex_);
  for (auto& stored : rules_) {
    if (stored.id == id) stored.enabled = enabled;
  }
  for (auto& stored : degradations_) {
    if (stored.id == id) stored.enabled = enabled;
  }
}

void FaultInjector::clear_rules() {
  const core::sync::MutexLock lock(mutex_);
  rules_.clear();
}

std::uint64_t FaultInjector::add_degradation(Degradation schedule) {
  const core::sync::MutexLock lock(mutex_);
  const std::uint64_t id = next_rule_id_++;
  degradations_.push_back(
      StoredDegradation{id, /*enabled=*/true, std::move(schedule),
                        /*matched=*/0});
  return id;
}

std::uint64_t FaultInjector::ramp_latency_ms(const Degradation& spec,
                                             std::uint64_t n) {
  if (n < spec.ramp_start || n >= spec.hold_until) return 0;
  const std::uint64_t into = n - spec.ramp_start;
  const std::uint64_t span = spec.ramp_sends == 0 ? 1 : spec.ramp_sends;
  if (into >= span) return spec.peak_latency_ms;
  // Linear interpolation; ramps may climb (degrading) or fall (recovering).
  if (spec.peak_latency_ms >= spec.start_latency_ms) {
    return spec.start_latency_ms +
           (spec.peak_latency_ms - spec.start_latency_ms) * into / span;
  }
  return spec.start_latency_ms -
         (spec.start_latency_ms - spec.peak_latency_ms) * into / span;
}

void FaultInjector::set_latency_hook(std::function<void(std::uint64_t)> hook) {
  latency_hook_ = std::move(hook);
}

FaultInjector::Stats FaultInjector::stats() const {
  const core::sync::MutexLock lock(mutex_);
  return stats_;
}

FaultInjector::Decision FaultInjector::decide(const Address& to) {
  const core::sync::MutexLock lock(mutex_);
  const std::uint64_t send_index = stats_.sends++;
  Decision decision;
  for (auto& sched : degradations_) {
    if (!sched.enabled) continue;
    if (sched.spec.to != "*" && sched.spec.to != to) continue;
    decision.degrade_ms += ramp_latency_ms(sched.spec, sched.matched++);
  }
  if (decision.degrade_ms > 0) {
    ++stats_.degraded_sends;
    stats_.degrade_ms += decision.degrade_ms;
  }
  for (const auto& stored : rules_) {
    if (!stored.enabled) continue;
    const Rule& rule = stored.rule;
    if (rule.to != "*" && rule.to != to) continue;
    if (send_index < rule.after_sends || send_index >= rule.until_sends) {
      continue;
    }
    if (rule.probability < 1.0 &&
        std::uniform_real_distribution<double>(0.0, 1.0)(rng_) >=
            rule.probability) {
      continue;
    }
    switch (rule.kind) {
      case FaultKind::Drop: ++stats_.drops; break;
      case FaultKind::BlackHole: ++stats_.black_holes; break;
      case FaultKind::Reset: ++stats_.resets; break;
      case FaultKind::Latency: ++stats_.delays; break;
      case FaultKind::TruncateBody: ++stats_.truncations; break;
      case FaultKind::CorruptBody: ++stats_.corruptions; break;
    }
    decision.fire = true;
    decision.rule = rule;
    return decision;
  }
  return decision;
}

void FaultInjector::stall(Executor* exec, std::uint64_t delay_ms,
                          std::function<void()> then) const {
  if (delay_ms > 0) {
    if (latency_hook_) {
      latency_hook_(delay_ms);  // a virtual clock advances inline
    } else if (exec != nullptr) {
      exec->schedule(delay_ms, std::move(then));
      return;
    } else {
      // No executor: the send completes before returning, so a slow
      // upstream blocks the calling thread exactly like this.
      // idicn-analysis: allow(*): null-executor fallback; a send given an executor arms its timer instead
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
  }
  then();
}

void FaultInjector::mutate_body(const Rule& rule, HttpResponse& response) {
  // Chunk-backed bodies are shared immutable buffers — flatten into a
  // private copy before corrupting so the cache entry the bytes came from
  // is not retroactively damaged (a real wire fault corrupts the copy in
  // flight, not the sender's memory).
  if (!response.stream_body.empty()) {
    response.body = response.full_body();
    response.stream_body.clear();
  }
  if (rule.kind == FaultKind::TruncateBody) {
    response.body.resize(std::min(rule.truncate_at, response.body.size()));
  } else if (!response.body.empty()) {
    response.body[response.body.size() / 2] ^= '\x5a';
  }
  // Keep the message parseable: the *content* is wrong, not the framing —
  // idICN verification, not the HTTP decoder, must catch it.
  response.headers.set("Content-Length",
                       std::to_string(response.body.size()));
}

void FaultInjector::send_streaming_async(const Address& from, const Address& to,
                                         const HttpRequest& request,
                                         std::shared_ptr<ChunkSink> sink,
                                         Executor* exec, SendCallback done) {
  const Decision decision = decide(to);
  stall(exec, decision.degrade_ms,
        [this, decision, from, to, request, sink = std::move(sink), exec,
         done = std::move(done)]() mutable {
          act(decision, from, to, request, std::move(sink), exec,
              std::move(done));
        });
}

void FaultInjector::act(const Decision& decision, const Address& from,
                        const Address& to, const HttpRequest& request,
                        std::shared_ptr<ChunkSink> sink, Executor* exec,
                        SendCallback done) {
  if (!decision.fire) {
    inner_->send_streaming_async(from, to, request, std::move(sink), exec,
                                 std::move(done));
    return;
  }
  switch (decision.rule.kind) {
    case FaultKind::Drop:
      done(make_response(504, "fault injected: destination " + to +
                                  " dropped"));
      return;
    case FaultKind::BlackHole:
      stall(exec, decision.rule.latency_ms, [to, done = std::move(done)]() {
        done(make_response(504, "fault injected: destination " + to +
                                    " black-holed"));
      });
      return;
    case FaultKind::Reset:
      done(make_response(504, "fault injected: connection to " + to +
                                  " reset by peer"));
      return;
    case FaultKind::Latency:
      stall(exec, decision.rule.latency_ms,
            [this, from, to, request, sink = std::move(sink), exec,
             done = std::move(done)]() mutable {
              inner_->send_streaming_async(from, to, request, std::move(sink),
                                           exec, std::move(done));
            });
      return;
    case FaultKind::TruncateBody:
    case FaultKind::CorruptBody: {
      // The fault rewrites the body, so it must be materialized first:
      // buffered inner send, mutate, then replay through the sink.
      inner_->send_streaming_async(
          from, to, request, nullptr, exec,
          [rule = decision.rule, sink = std::move(sink),
           done = std::move(done)](HttpResponse response) {
            if (response.ok()) mutate_body(rule, response);
            if (sink != nullptr) replay_to_sink(response, *sink);
            done(std::move(response));
          });
      return;
    }
  }
}

std::vector<HttpResponse> FaultInjector::multicast(const Address& group_from,
                                                   const std::string& group,
                                                   const HttpRequest& request) {
  const Decision decision = decide(group);
  stall(nullptr, decision.degrade_ms, [] {});
  if (!decision.fire) return inner_->multicast(group_from, group, request);
  switch (decision.rule.kind) {
    case FaultKind::Drop:
    case FaultKind::BlackHole:
    case FaultKind::Reset:
      if (decision.rule.kind == FaultKind::BlackHole) {
        stall(nullptr, decision.rule.latency_ms, [] {});
      }
      return {};  // the whole group is unreachable
    case FaultKind::Latency:
      stall(nullptr, decision.rule.latency_ms, [] {});
      return inner_->multicast(group_from, group, request);
    case FaultKind::TruncateBody:
    case FaultKind::CorruptBody: {
      auto responses = inner_->multicast(group_from, group, request);
      for (auto& response : responses) {
        if (response.ok()) mutate_body(decision.rule, response);
      }
      return responses;
    }
  }
  return inner_->multicast(group_from, group, request);  // unreachable
}

std::uint64_t FaultInjector::now_ms() const { return inner_->now_ms(); }

}  // namespace idicn::net
