// Deterministic fault-injecting Transport decorator.
//
// FaultInjector wraps any net::Transport (SimNet in unit tests, SocketNet in
// the chaos harness) and perturbs traffic according to a scripted, seeded
// fault plan. Faults are expressed as ordered rules matched per destination;
// each rule can fire probabilistically (seeded mt19937_64, so a given seed
// replays the exact same fault sequence) and can be confined to a scheduled
// fail→recover window measured in this injector's send count — the only
// clock every transport shares, which keeps schedules deterministic even
// under wall-clock transports.
//
// Fault taxonomy (DESIGN.md §"Failure model & degradation"):
//   * Drop        — destination unreachable: synthesize the transport's 504
//                   without touching the inner transport (instant failure).
//   * BlackHole   — like Drop, but first burn `latency_ms` as a simulated
//                   connect/IO timeout (models a host that accepts SYNs and
//                   never answers).
//   * Reset       — connection reset by peer: synthesized 504 with a reset
//                   reason, no forwarding.
//   * Latency     — delay `latency_ms`, then forward untouched (slow peer).
//   * TruncateBody— forward, then cut the response body at `truncate_at`
//                   bytes (Content-Length rewritten so the message stays
//                   parseable — the *content* is wrong, which is exactly
//                   what idICN verification must catch).
//   * CorruptBody — forward, then flip a byte of the response body.
//
// Every send takes one path: decide the fault, stall, act. A stall runs
// through the latency hook when one is installed (tests over SimNet
// advance the virtual clock there), else on the executor's timer, else —
// for a send that must complete before returning — by blocking the calling
// thread, as a slow upstream would.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "core/sync.hpp"
#include "net/transport.hpp"

namespace idicn::net {

class FaultInjector final : public Transport {
public:
  enum class FaultKind : std::uint8_t {
    Drop,
    BlackHole,
    Reset,
    Latency,
    TruncateBody,
    CorruptBody,
  };

  struct Rule {
    /// Destination to afflict; "*" matches every destination (multicast
    /// group addresses match the same way).
    Address to = "*";
    FaultKind kind = FaultKind::Drop;
    /// Per-send chance this rule fires when matched, drawn from the seeded
    /// RNG in send order.
    double probability = 1.0;
    /// Stall for Latency / BlackHole faults.
    std::uint64_t latency_ms = 0;
    /// Byte offset to cut the body at, for TruncateBody.
    std::size_t truncate_at = 0;
    /// Scheduled fail→recover window, in injector send count: the rule is
    /// active for sends in [after_sends, until_sends).
    std::uint64_t after_sends = 0;
    std::uint64_t until_sends = std::numeric_limits<std::uint64_t>::max();
  };

  /// Time-varying per-destination degradation: a latency ramp measured in
  /// *matched sends to that destination* (each schedule keeps its own
  /// counter, so one destination's ramp is unaffected by traffic to
  /// others). The nth matched send stalls for
  ///
  ///        n <  ramp_start              → 0            (healthy)
  ///        n ∈ [ramp_start, +ramp_sends)→ linear start→peak interpolation
  ///        n ∈ [.., hold_until)         → peak_latency_ms (fully degraded)
  ///        n >= hold_until              → 0            (recovered)
  ///
  /// Ramps compose with the fault rules: the schedule's stall is applied
  /// first, then the matched rule (if any) fires as usual. This is the
  /// straggler model the multi-source fetcher is tested against — a
  /// replica that decays gradually rather than failing crisply, which
  /// timeouts miss but hedging must catch.
  struct Degradation {
    Address to = "*";
    std::uint64_t start_latency_ms = 0;  ///< stall at the ramp's first send
    std::uint64_t peak_latency_ms = 0;   ///< stall once the ramp tops out
    std::uint64_t ramp_start = 0;        ///< matched-send index ramp begins
    std::uint64_t ramp_sends = 1;        ///< sends over which latency climbs
    /// Matched-send index at which the destination recovers (stall back
    /// to 0); default: degraded forever.
    std::uint64_t hold_until = std::numeric_limits<std::uint64_t>::max();
  };

  struct Options {
    std::uint64_t seed = 0xfa017;  ///< probability RNG seed
  };

  /// Per-kind injection counts plus total sends observed. Plain snapshot
  /// struct; read via stats().
  struct Stats {
    std::uint64_t sends = 0;
    std::uint64_t drops = 0;
    std::uint64_t black_holes = 0;
    std::uint64_t resets = 0;
    std::uint64_t delays = 0;
    std::uint64_t truncations = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t degraded_sends = 0;  ///< sends stalled by a schedule
    std::uint64_t degrade_ms = 0;      ///< total schedule stall injected
  };

  /// Does not own `inner`; the caller keeps it alive.
  explicit FaultInjector(Transport* inner);
  FaultInjector(Transport* inner, Options options);

  /// Append a rule; rules are evaluated in insertion order and the first
  /// active match that passes its probability draw fires. Returns an id
  /// for remove_rule / set_enabled.
  std::uint64_t add_rule(Rule rule) IDICN_EXCLUDES(mutex_);
  void remove_rule(std::uint64_t id) IDICN_EXCLUDES(mutex_);
  /// Toggle a rule without forgetting it (manual fail→recover scripting).
  void set_enabled(std::uint64_t id, bool enabled) IDICN_EXCLUDES(mutex_);
  void clear_rules() IDICN_EXCLUDES(mutex_);

  /// Install a degradation schedule (latency ramp); ids share the rule id
  /// space and work with remove_rule / set_enabled. Multiple matching
  /// schedules stack additively.
  std::uint64_t add_degradation(Degradation schedule) IDICN_EXCLUDES(mutex_);

  /// Run every stall through `hook` instead of a timer or a sleep (e.g.
  /// advance a SimNet virtual clock). Install before traffic flows.
  void set_latency_hook(std::function<void(std::uint64_t)> hook);

  [[nodiscard]] Stats stats() const IDICN_EXCLUDES(mutex_);

  // Transport:
  /// One decide() per send, in send order whatever the form of call.
  /// Connectivity faults synthesize the 504 without touching the inner
  /// transport; pass-through and Latency faults forward the send (sink and
  /// executor included) after the stall; body faults buffer the inner send,
  /// mutate the body, then replay it through the sink.
  void send_streaming_async(const Address& from, const Address& to,
                            const HttpRequest& request,
                            std::shared_ptr<ChunkSink> sink, Executor* exec,
                            SendCallback done) override;
  std::vector<HttpResponse> multicast(const Address& group_from,
                                      const std::string& group,
                                      const HttpRequest& request) override;
  [[nodiscard]] std::uint64_t now_ms() const override;

private:
  struct StoredRule {
    std::uint64_t id = 0;
    bool enabled = true;
    Rule rule;
  };

  struct StoredDegradation {
    std::uint64_t id = 0;
    bool enabled = true;
    Degradation spec;
    std::uint64_t matched = 0;  ///< this schedule's private send clock
  };

  /// A fault decision for one send, resolved entirely under the lock so the
  /// RNG draw order is deterministic; acted on after unlock.
  struct Decision {
    bool fire = false;
    Rule rule;
    /// Additional stall from matching degradation schedules, applied
    /// before the rule (if any) acts.
    std::uint64_t degrade_ms = 0;
  };

  /// The stall a schedule applies to its nth matched send.
  [[nodiscard]] static std::uint64_t ramp_latency_ms(const Degradation& spec,
                                                     std::uint64_t n);

  [[nodiscard]] Decision decide(const Address& to) IDICN_EXCLUDES(mutex_);
  /// Run `then` once `delay_ms` has passed: inline when there is no delay
  /// or a latency hook, on `exec`'s timer when there is one, else after a
  /// blocking sleep.
  void stall(Executor* exec, std::uint64_t delay_ms,
             std::function<void()> then) const;
  static void mutate_body(const Rule& rule, HttpResponse& response);
  /// The decision's tail, run after the degradation stall.
  void act(const Decision& decision, const Address& from, const Address& to,
           const HttpRequest& request, std::shared_ptr<ChunkSink> sink,
           Executor* exec, SendCallback done);

  Transport* inner_;
  Options options_;
  std::function<void(std::uint64_t)> latency_hook_;  ///< set before traffic
  mutable core::sync::Mutex mutex_;
  std::vector<StoredRule> rules_ IDICN_GUARDED_BY(mutex_);
  std::vector<StoredDegradation> degradations_ IDICN_GUARDED_BY(mutex_);
  std::uint64_t next_rule_id_ IDICN_GUARDED_BY(mutex_) = 1;
  std::mt19937_64 rng_ IDICN_GUARDED_BY(mutex_);
  Stats stats_ IDICN_GUARDED_BY(mutex_);
};

// Out of line: Options' default member initializers only become usable once
// FaultInjector is a complete type (GCC rejects `Options options = {}`).
inline FaultInjector::FaultInjector(Transport* inner)
    : FaultInjector(inner, Options{}) {}

}  // namespace idicn::net
