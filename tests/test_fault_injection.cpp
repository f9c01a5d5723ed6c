// FaultInjector tests over SimNet: deterministic fault plans (drop, reset,
// latency, scheduled windows, probabilistic faults), response mutation
// caught by idICN verification, and the proxy's serve-stale-on-error
// degradation driven entirely on the virtual clock.
#include "net/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/sim_net.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

struct EchoHost : net::SimHost {
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& /*from*/) override {
    return net::make_response(200, "echo:" + request.target);
  }
};

TEST(FaultInjector, DropSynthesizes504AndRecoversOnRemove) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);

  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Drop;
  const auto id = faulty.add_rule(rule);

  net::HttpRequest request;
  request.target = "/x";
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.stats().drops, 1u);

  faulty.remove_rule(id);
  const auto response = faulty.send("a", "svc", request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/x");
  EXPECT_EQ(faulty.stats().sends, 2u);
}

TEST(FaultInjector, RulesMatchPerDestination) {
  net::SimNet net;
  EchoHost a, b;
  net.attach("a.svc", &a);
  net.attach("b.svc", &b);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "a.svc";
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("c", "a.svc", request).status, 504);
  EXPECT_EQ(faulty.send("c", "b.svc", request).status, 200);
}

TEST(FaultInjector, ScheduledFailRecoverWindow) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.after_sends = 1;  // sends 1 and 2 fail; 0 and 3+ succeed
  rule.until_sends = 3;
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // recovered
  EXPECT_EQ(faulty.stats().drops, 2u);
}

TEST(FaultInjector, ProbabilisticFaultsAreSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    net::SimNet net;
    EchoHost host;
    net.attach("svc", &host);
    net::FaultInjector::Options options;
    options.seed = seed;
    net::FaultInjector faulty(&net, options);
    net::FaultInjector::Rule rule;
    rule.to = "svc";
    rule.probability = 0.5;
    faulty.add_rule(rule);
    std::vector<int> statuses;
    net::HttpRequest request;
    for (int i = 0; i < 100; ++i) {
      statuses.push_back(faulty.send("a", "svc", request).status);
    }
    return statuses;
  };
  const auto first = run(7);
  EXPECT_EQ(first, run(7));   // same seed replays the same fault sequence
  EXPECT_NE(first, run(8));   // a different seed perturbs it
  const auto faults = std::count(first.begin(), first.end(), 504);
  EXPECT_GT(faults, 20);  // p=0.5 over 100 sends: nowhere near all-or-nothing
  EXPECT_LT(faults, 80);
}

TEST(FaultInjector, LatencyHookAvoidsWallClockSleeps) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Latency;
  rule.latency_ms = 250;
  faulty.add_rule(rule);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // slow, not broken
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_EQ(stalls[0], 250u);
  EXPECT_EQ(faulty.stats().delays, 1u);
}

TEST(FaultInjector, DegradationRampIsLinearPerDestinationAndRecovers) {
  net::SimNet net;
  EchoHost host;
  net.attach("slow.svc", &host);
  net.attach("fast.svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });

  net::FaultInjector::Degradation ramp;
  ramp.to = "slow.svc";
  ramp.start_latency_ms = 10;
  ramp.peak_latency_ms = 410;
  ramp.ramp_start = 1;   // first send healthy
  ramp.ramp_sends = 4;   // climbs 10 → 410 over 4 sends: 10, 110, 210, 310
  ramp.hold_until = 7;   // sends 5 and 6 at peak, 7+ recovered
  faulty.add_degradation(ramp);

  net::HttpRequest request;
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(faulty.send("a", "slow.svc", request).status, 200);
    // Traffic to another destination never advances this ramp's clock.
    EXPECT_EQ(faulty.send("a", "fast.svc", request).status, 200);
  }
  EXPECT_EQ(stalls, (std::vector<std::uint64_t>{10, 110, 210, 310, 410, 410}));
  EXPECT_EQ(faulty.stats().degraded_sends, 6u);
  EXPECT_EQ(faulty.stats().degrade_ms, 10u + 110 + 210 + 310 + 410 + 410);
}

TEST(FaultInjector, DegradationComposesWithRulesAndObeysEnableToggle) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  std::vector<std::uint64_t> stalls;
  faulty.set_latency_hook([&](std::uint64_t ms) { stalls.push_back(ms); });

  net::FaultInjector::Degradation ramp;
  ramp.to = "svc";
  ramp.start_latency_ms = 50;
  ramp.peak_latency_ms = 50;
  const auto id = faulty.add_degradation(ramp);
  net::FaultInjector::Rule drop;
  drop.to = "svc";
  drop.kind = net::FaultInjector::FaultKind::Drop;
  drop.after_sends = 1;
  drop.until_sends = 2;
  faulty.add_rule(drop);

  net::HttpRequest request;
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // degraded only
  EXPECT_EQ(faulty.send("a", "svc", request).status, 504);  // stall, then drop
  faulty.set_enabled(id, false);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);  // ramp paused
  faulty.set_enabled(id, true);
  EXPECT_EQ(faulty.send("a", "svc", request).status, 200);
  EXPECT_EQ(stalls, (std::vector<std::uint64_t>{50, 50, 50}));
  EXPECT_EQ(faulty.stats().drops, 1u);
}

TEST(FaultInjector, ResetReportsConnectionReset) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector faulty(&net);
  net::FaultInjector::Rule rule;
  rule.to = "svc";
  rule.kind = net::FaultInjector::FaultKind::Reset;
  faulty.add_rule(rule);

  const auto response = faulty.send("a", "svc", net::HttpRequest{});
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("reset"), std::string::npos);
  EXPECT_EQ(faulty.stats().resets, 1u);
}

TEST(FaultInjector, MulticastDropSilencesTheGroup) {
  net::SimNet net;
  EchoHost a, b;
  net.attach("a.svc", &a);
  net.attach("b.svc", &b);
  net.join_group("peers", "a.svc");
  net.join_group("peers", "b.svc");
  net::FaultInjector faulty(&net);

  EXPECT_EQ(faulty.multicast("c", "peers", net::HttpRequest{}).size(), 2u);
  net::FaultInjector::Rule rule;
  rule.to = "peers";
  const auto id = faulty.add_rule(rule);
  EXPECT_TRUE(faulty.multicast("c", "peers", net::HttpRequest{}).empty());
  faulty.set_enabled(id, false);
  EXPECT_EQ(faulty.multicast("c", "peers", net::HttpRequest{}).size(), 2u);
}

/// Executor that runs scheduled tasks only when the test asks.
class ManualExecutor final : public net::Executor {
public:
  TaskId schedule(std::uint64_t delay_ms, std::function<void()> fn) override {
    tasks_.push_back({next_id_, now_ms_ + delay_ms, std::move(fn)});
    return next_id_++;
  }
  bool cancel(TaskId id) override {
    return std::erase_if(tasks_, [id](const Task& t) { return t.id == id; }) > 0;
  }
  bool watch_fd(int, bool, bool, IoCallback) override { return false; }
  bool update_fd(int, bool, bool) override { return false; }
  void unwatch_fd(int) override {}
  [[nodiscard]] std::uint64_t now_ms_exec() const override { return now_ms_; }

  /// Run every due task, advancing the clock to each deadline in turn.
  void run_all() {
    while (!tasks_.empty()) {
      auto next = std::min_element(tasks_.begin(), tasks_.end(),
                                   [](const Task& a, const Task& b) {
                                     return a.deadline_ms < b.deadline_ms;
                                   });
      Task task = std::move(*next);
      tasks_.erase(next);
      now_ms_ = task.deadline_ms;
      task.fn();
    }
  }

private:
  struct Task {
    TaskId id;
    std::uint64_t deadline_ms;
    std::function<void()> fn;
  };
  std::vector<Task> tasks_;
  TaskId next_id_ = 1;
  std::uint64_t now_ms_ = 0;
};

/// Collects what a streaming send delivers.
class BodySink final : public net::ChunkSink {
public:
  bool on_head(const net::HttpResponse&) override { return true; }
  bool on_chunk(core::Chunk chunk) override {
    body.append(chunk.view());
    return true;
  }
  std::string body;
};

enum class EntryPoint { Send, SendStreaming, SendAsync };

/// What one seeded plan did to 60 sends made through `entry`: each send's
/// status and body, the hook's stalls, and the injector's stats.
struct PlanRun {
  std::vector<std::pair<int, std::string>> replies;
  std::vector<std::uint64_t> stalls;
  net::FaultInjector::Stats stats;
};

PlanRun run_seeded_plan(EntryPoint entry) {
  net::SimNet net;
  EchoHost host;
  net.attach("svc", &host);
  net::FaultInjector::Options options;
  options.seed = 20'240;
  net::FaultInjector faulty(&net, options);
  PlanRun run;
  faulty.set_latency_hook([&run](std::uint64_t ms) { run.stalls.push_back(ms); });

  net::FaultInjector::Rule drop;
  drop.to = "svc";
  drop.kind = net::FaultInjector::FaultKind::Drop;
  drop.probability = 0.3;
  faulty.add_rule(drop);
  net::FaultInjector::Rule corrupt;
  corrupt.to = "svc";
  corrupt.kind = net::FaultInjector::FaultKind::CorruptBody;
  corrupt.after_sends = 20;
  corrupt.until_sends = 35;
  faulty.add_rule(corrupt);
  net::FaultInjector::Rule slow;
  slow.to = "svc";
  slow.kind = net::FaultInjector::FaultKind::Latency;
  slow.probability = 0.5;
  slow.latency_ms = 40;
  faulty.add_rule(slow);
  net::FaultInjector::Degradation ramp;
  ramp.to = "svc";
  ramp.start_latency_ms = 5;
  ramp.peak_latency_ms = 95;
  ramp.ramp_start = 10;
  ramp.ramp_sends = 10;
  ramp.hold_until = 45;
  faulty.add_degradation(ramp);

  ManualExecutor exec;
  for (int i = 0; i < 60; ++i) {
    net::HttpRequest request;
    request.target = "/object-" + std::to_string(i);
    net::HttpResponse response;
    std::string body;
    if (entry == EntryPoint::Send) {
      response = faulty.send("client", "svc", request);
    } else if (entry == EntryPoint::SendStreaming) {
      BodySink sink;
      response = faulty.send_streaming("client", "svc", request, sink);
      body = sink.body;  // a synthesized fault's body rides the head
    } else {
      bool done = false;
      faulty.send_async("client", "svc", request, &exec,
                        [&](net::HttpResponse r) {
                          response = std::move(r);
                          done = true;
                        });
      exec.run_all();
      EXPECT_TRUE(done) << "send " << i;
    }
    run.replies.emplace_back(response.status, body + response.full_body());
  }
  run.stats = faulty.stats();
  return run;
}

auto stats_fields(const net::FaultInjector::Stats& s) {
  return std::make_tuple(s.sends, s.drops, s.black_holes, s.resets, s.delays,
                         s.truncations, s.corruptions, s.degraded_sends,
                         s.degrade_ms);
}

TEST(FaultInjector, SeededPlanGivesSameResultsThroughEveryEntryPoint) {
  const PlanRun buffered = run_seeded_plan(EntryPoint::Send);
  // The plan really exercises every leg: drops, corruptions, delays and a
  // ramp, with clean sends in between.
  EXPECT_GT(buffered.stats.drops, 0u);
  EXPECT_GT(buffered.stats.corruptions, 0u);
  EXPECT_GT(buffered.stats.delays, 0u);
  EXPECT_GT(buffered.stats.degraded_sends, 0u);
  int clean = 0;
  for (const auto& [status, body] : buffered.replies) {
    if (status == 200 && body.rfind("echo:/object-", 0) == 0) ++clean;
  }
  EXPECT_GT(clean, 0);

  for (const EntryPoint entry :
       {EntryPoint::SendStreaming, EntryPoint::SendAsync}) {
    SCOPED_TRACE(entry == EntryPoint::SendStreaming ? "send_streaming"
                                                    : "send_async");
    const PlanRun other = run_seeded_plan(entry);
    EXPECT_EQ(other.replies, buffered.replies);
    EXPECT_EQ(other.stalls, buffered.stalls);
    EXPECT_EQ(stats_fields(other.stats), stats_fields(buffered.stats));
  }
}

/// A single-AD idICN deployment whose proxy sends through a FaultInjector.
struct FaultyDeployment {
  net::SimNet net;
  net::FaultInjector faulty{&net};
  net::DnsService dns;
  crypto::MerkleSigner signer{12345, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  Proxy proxy;

  explicit FaultyDeployment(Proxy::Options options = {})
      : proxy(&faulty, "cache.ad1", "nrs.consortium", &dns, options) {
    net.attach("nrs.consortium", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
    faulty.set_latency_hook([](std::uint64_t) {});  // never wall-sleep here
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  net::HttpResponse get(const SelfCertifyingName& name) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + name.host() + "/";
    return proxy.handle_http(request, "client");
  }
};

TEST(FaultInjector, CorruptedBodyFailsVerificationNeverCached) {
  FaultyDeployment d;
  const auto name = d.publish("page", "pristine content");
  net::FaultInjector::Rule rule;
  rule.to = "rp.pub";
  rule.kind = net::FaultInjector::FaultKind::CorruptBody;
  const auto id = d.faulty.add_rule(rule);

  EXPECT_EQ(d.get(name).status, 502);  // corrupt bytes never served
  EXPECT_GE(d.proxy.stats().verification_failures, 1u);
  EXPECT_FALSE(d.proxy.is_cached(name.host()));
  EXPECT_GE(d.faulty.stats().corruptions, 1u);

  d.faulty.set_enabled(id, false);
  const auto clean = d.get(name);
  EXPECT_EQ(clean.status, 200);
  EXPECT_EQ(clean.full_body(), "pristine content");
}

TEST(FaultInjector, TruncatedBodyFailsVerification) {
  FaultyDeployment d;
  const auto name = d.publish("page", "a body long enough to truncate");
  net::FaultInjector::Rule rule;
  rule.to = "rp.pub";
  rule.kind = net::FaultInjector::FaultKind::TruncateBody;
  rule.truncate_at = 4;
  d.faulty.add_rule(rule);

  EXPECT_EQ(d.get(name).status, 502);
  EXPECT_GE(d.proxy.stats().verification_failures, 1u);
  EXPECT_EQ(d.faulty.stats().truncations, 1u);
}

TEST(ServeStale, UpstreamOutageServesExpiredEntryWithWarning) {
  Proxy::Options options;
  options.freshness_ms = 1;  // expires as soon as the clock moves
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);  // sends advance the virtual clock
  const auto name = d.publish("page", "still good");

  ASSERT_EQ(d.get(name).status, 200);  // cached (MISS → stored)
  ASSERT_TRUE(d.proxy.is_cached(name.host()));

  // Total outage: NRS, reverse proxy, origin all black-holed.
  net::FaultInjector::Rule rule;  // to = "*"
  d.faulty.add_rule(rule);
  // Let the virtual clock pass the freshness horizon.
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});

  const auto degraded = d.get(name);
  EXPECT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.full_body(), "still good");
  EXPECT_EQ(degraded.headers.get("X-IdICN-Stale"), "1");
  ASSERT_TRUE(degraded.headers.get("Warning").has_value());
  EXPECT_NE(degraded.headers.get("Warning")->find("110"), std::string::npos);
  EXPECT_EQ(d.proxy.stats().stale_served, 1u);
  EXPECT_GE(d.proxy.stats().upstream_errors, 1u);

  // Freshness was NOT renewed, so recovery is immediate: lift the faults
  // and the next request refetches fresh content (no stale marker).
  d.faulty.clear_rules();
  const auto recovered = d.get(name);
  EXPECT_EQ(recovered.status, 200);
  EXPECT_FALSE(recovered.headers.get("X-IdICN-Stale").has_value());
}

TEST(ServeStale, NrsOutageRefetchesDirectlyFromLastSource) {
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "v1");
  ASSERT_EQ(d.get(name).status, 200);
  // The content changes upstream, so the cached validators go stale (no
  // cheap 304 path) and a full refetch is the only way forward.
  d.publish("page", "v2");

  // Only the NRS is down; the reverse proxy still serves. The proxy must
  // sidestep resolution and refetch from where the entry came from.
  net::FaultInjector::Rule rule;
  rule.to = "nrs.consortium";
  d.faulty.add_rule(rule);
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});

  const auto refreshed = d.get(name);
  EXPECT_EQ(refreshed.status, 200);
  EXPECT_EQ(refreshed.full_body(), "v2");
  // Direct refetch succeeded: this is real content, not a stale fallback.
  EXPECT_FALSE(refreshed.headers.get("X-IdICN-Stale").has_value());
  EXPECT_EQ(d.proxy.stats().stale_served, 0u);
}

TEST(ServeStale, CleanNegativeNeverServesStale) {
  Proxy::Options options;
  options.freshness_ms = 1;
  FaultyDeployment d(options);
  d.net.set_default_latency_ms(5);
  const auto name = d.publish("page", "v1");
  ASSERT_EQ(d.get(name).status, 200);

  // An NRS that is healthy but has forgotten the name (registration
  // churn, modelled by swapping in an empty resolver at the same address)
  // is a clean negative — the proxy must 404, not mask it with stale
  // bytes. The reverse proxy is also gone, or revalidation would renew
  // the entry before resolution is consulted.
  NameResolutionSystem amnesiac{&d.dns};
  d.net.detach("nrs.consortium");
  d.net.attach("nrs.consortium", &amnesiac);
  net::FaultInjector::Rule rp_down;
  rp_down.to = "rp.pub";
  d.faulty.add_rule(rp_down);
  (void)d.net.send("tick", "origin.pub", net::HttpRequest{});

  const auto gone = d.get(name);
  EXPECT_EQ(gone.status, 404);
  EXPECT_EQ(d.proxy.stats().stale_served, 0u);
}

}  // namespace
