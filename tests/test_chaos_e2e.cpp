// Chaos end-to-end harness: the socketed idICN deployment driven through
// scripted fault schedules — origin (reverse-proxy) flaps, an NRS outage,
// and a slow peer injected through net::FaultInjector layered over
// SocketNet. Invariants under test:
//   * no crash / no sanitizer report while faults fire and recover;
//   * objects with a cached replica keep serving (stale allowed, counted)
//     for the whole outage — zero client-visible 5xx;
//   * uncached objects fail *fast* once the per-destination breaker opens
//     (no full connect-timeout burn per request);
//   * after faults lift the breaker half-opens, probes, re-closes, and the
//     hit path is byte-identical to pre-fault behavior.
// Every server uses short timeouts and aggressive breaker/retry knobs so
// the schedule runs deterministically under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/fault_injector.hpp"
#include "runtime/http_client.hpp"
#include "runtime/retry.hpp"
#include "runtime/server_group.hpp"
#include "runtime/socket_net.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Aggressive fault-tolerance knobs: short timeouts, two tries, a breaker
/// that opens after two consecutive failures and cools down in 300 ms —
/// everything a chaos schedule needs to run in test time.
runtime::SocketNet::Options chaos_net_options() {
  runtime::SocketNet::Options options;
  options.client.connect_timeout_ms = 250;
  options.client.io_timeout_ms = 2'000;
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 5;
  options.retry.max_delay_ms = 20;
  options.retry.overall_deadline_ms = 2'000;
  options.breaker.failure_threshold = 2;
  options.breaker.open_ms = 300;
  options.budget.initial_tokens = 1'000;  // the breaker, not the budget,
  options.budget.tokens_per_request = 1;  // is under test here
  return options;
}

/// The socketed single-AD deployment of test_runtime_e2e, restartable: the
/// reverse-proxy and NRS servers can be stopped (fault) and re-bound to the
/// same port (recovery) while their host objects — and thus registrations
/// and published content — survive. The edge proxy's upstream transport is
/// a FaultInjector over the SocketNet, so tests can also script latency and
/// corruption without killing a server.
struct ChaosDeployment {
  runtime::SocketNet net{chaos_net_options()};
  net::FaultInjector faulty{&net};
  net::DnsService dns;
  // Height 8 ⇒ 256 one-time signatures: replicated publishing burns one
  // signature per (object, replica) pair, so the hedging sweep's 40 objects
  // × 2 replicas fit with room to spare.
  crypto::MerkleSigner signer{12345, 8};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  /// Optional second replica of the same publisher (same signer, same
  /// origin): publishing the same label on both makes the NRS return two
  /// locations for one self-certifying name — the multi-source MISS path.
  std::unique_ptr<ReverseProxy> reverse_proxy2;
  Proxy proxy;
  Proxy peer_proxy;

  runtime::ServerGroup origin_server{&origin, "origin.pub"};
  std::unique_ptr<runtime::ServerGroup> nrs_server;
  std::unique_ptr<runtime::ServerGroup> rp_server;
  std::unique_ptr<runtime::ServerGroup> rp2_server;
  std::unique_ptr<runtime::ServerGroup> peer_server;
  std::unique_ptr<runtime::ServerGroup> proxy_server;
  std::uint16_t nrs_port = 0;
  std::uint16_t rp_port = 0;

  static Proxy::Options proxy_options(std::uint64_t freshness_ms,
                                      std::size_t shards) {
    Proxy::Options options;
    options.freshness_ms = freshness_ms;
    options.cache_shards = shards;
    return options;
  }

  explicit ChaosDeployment(std::uint64_t freshness_ms = 1,
                           bool with_peer = false,
                           std::size_t proxy_workers = 2,
                           bool with_second_rp = false,
                           std::optional<Proxy::Options> proxy_override = {})
      : proxy{&faulty, "cache.ad1", "nrs.consortium", &dns,
              proxy_override.value_or(proxy_options(freshness_ms, 2))},
        peer_proxy{&net, "cache2.ad1", "nrs.consortium", &dns,
                   proxy_options(freshness_ms, 1)} {
    if (with_peer) proxy.add_peer("cache2.ad1");  // before serving starts
    origin_server.start();
    net.register_endpoint(origin_server);
    nrs_server = std::make_unique<runtime::ServerGroup>(&nrs, "nrs.consortium");
    nrs_port = nrs_server->start();
    net.register_endpoint(*nrs_server);
    rp_server = std::make_unique<runtime::ServerGroup>(&reverse_proxy, "rp.pub");
    rp_port = rp_server->start();
    net.register_endpoint(*rp_server);
    if (with_second_rp) {
      reverse_proxy2 = std::make_unique<ReverseProxy>(
          &net, "rp2.pub", "origin.pub", "nrs.consortium", &signer);
      rp2_server = std::make_unique<runtime::ServerGroup>(reverse_proxy2.get(),
                                                          "rp2.pub");
      rp2_server->start();
      net.register_endpoint(*rp2_server);
    }
    if (with_peer) {
      peer_server = std::make_unique<runtime::ServerGroup>(&peer_proxy,
                                                           "cache2.ad1");
      peer_server->start();
      net.register_endpoint(*peer_server);
    }
    runtime::ServerGroup::Options proxy_opts;
    proxy_opts.workers = proxy_workers;
    proxy_server = std::make_unique<runtime::ServerGroup>(&proxy, "cache.ad1",
                                                          proxy_opts);
    proxy_server->start();
    net.register_endpoint(*proxy_server);
  }

  ~ChaosDeployment() {
    proxy_server->stop();
    if (peer_server) peer_server->stop();
    if (rp2_server) rp2_server->stop();
    if (rp_server) rp_server->stop();
    if (nrs_server) nrs_server->stop();
    origin_server.stop();
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin_server.run_on_all_workers([&] { origin.put(label, body); });
    std::optional<SelfCertifyingName> name;
    rp_server->run_on_all_workers([&] { name = reverse_proxy.publish(label); });
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  /// Publish on BOTH replicas: same signer + same label ⇒ same
  /// self-certifying name, two NRS location rows (rp.pub first).
  SelfCertifyingName publish_replicated(const std::string& label,
                                        const std::string& body) {
    const auto name = publish(label, body);
    if (rp2_server) {
      std::optional<SelfCertifyingName> twin;
      rp2_server->run_on_all_workers(
          [&] { twin = reverse_proxy2->publish(label); });
      EXPECT_TRUE(twin.has_value());
      if (twin) {
        EXPECT_EQ(twin->flat(), name.flat());
      }
    }
    return name;
  }

  /// Kill the reverse proxy (the proxy's only content location).
  void stop_rp() { rp_server->stop(); rp_server.reset(); }
  /// Recover it on the same port: registrations and signed entries live in
  /// the ReverseProxy object, which survived. Re-registering the endpoint
  /// drops the proxy's now-dead pooled connections.
  void restart_rp() {
    rp_server = std::make_unique<runtime::ServerGroup>(&reverse_proxy, "rp.pub");
    start_on_port(*rp_server, rp_port);
    net.register_endpoint(*rp_server);
  }

  void stop_nrs() { nrs_server->stop(); nrs_server.reset(); }
  void restart_nrs() {
    nrs_server = std::make_unique<runtime::ServerGroup>(&nrs, "nrs.consortium");
    start_on_port(*nrs_server, nrs_port);
    net.register_endpoint(*nrs_server);
  }

  static void start_on_port(runtime::ServerGroup& server, std::uint16_t port) {
    for (int tries = 0;; ++tries) {
      try {
        server.start(port);
        return;
      } catch (const std::exception&) {
        if (tries >= 40) throw;  // ~2 s of grace for the old socket to fade
        sleep_ms(50);
      }
    }
  }
};

std::string url_of(const SelfCertifyingName& name) {
  return "http://" + name.host() + "/";
}

TEST(ChaosE2e, OriginFlapCachedServesStaleUncachedFastFails) {
  ChaosDeployment d;  // 1 ms freshness: every entry is stale on re-request
  const auto cached = d.publish("cached", "survives the outage");
  const auto uncached = d.publish("uncached", "never fetched before the flap");

  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  auto warm = browser.get(url_of(cached), &error);
  ASSERT_TRUE(warm.has_value()) << error;
  ASSERT_EQ(warm->status, 200);
  EXPECT_EQ(warm->headers.get("X-Cache"), "MISS");

  sleep_ms(5);  // past the freshness horizon
  const auto pre_fault = browser.get(url_of(cached), &error);
  ASSERT_TRUE(pre_fault.has_value()) << error;
  ASSERT_EQ(pre_fault->status, 200);  // revalidated 304 → renewed hit
  EXPECT_EQ(pre_fault->headers.get("X-Cache"), "HIT");
  EXPECT_FALSE(pre_fault->headers.get("X-IdICN-Stale").has_value());

  // ---- fault: the only content location goes down -----------------------
  d.stop_rp();
  sleep_ms(5);

  // Cached object: every request keeps answering 200 for the whole outage.
  for (int i = 0; i < 6; ++i) {
    const auto degraded = browser.get(url_of(cached), &error);
    ASSERT_TRUE(degraded.has_value()) << error;
    EXPECT_EQ(degraded->status, 200);
    EXPECT_EQ(degraded->body, "survives the outage");
  }
  EXPECT_GE(d.proxy.stats().stale_served, 1u);
  EXPECT_GE(d.proxy.stats().upstream_errors, 1u);

  // Uncached object: fails — and once the breaker opens, fails *fast*.
  for (int i = 0; i < 4; ++i) {
    const auto failed = browser.get(url_of(uncached), &error);
    ASSERT_TRUE(failed.has_value()) << error;
    EXPECT_GE(failed->status, 500);
  }
  EXPECT_EQ(d.net.breaker_state("rp.pub"),
            runtime::CircuitBreaker::State::Open);
  EXPECT_GT(d.net.stats().breaker_fast_fails, 0u);
  EXPECT_GT(d.net.stats().retries, 0u);
  // Open breaker ⇒ instant synthesized failure, no dialing: this burst
  // must complete far inside what even one connect timeout would cost.
  const auto burst_start = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    (void)browser.get(url_of(uncached), &error);
  }
  const auto burst_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - burst_start)
                            .count();
  EXPECT_LT(burst_ms, 250 * 5);  // << 5 sequential connect timeouts

  // ---- recovery ---------------------------------------------------------
  d.restart_rp();
  sleep_ms(350);  // past the breaker cooldown: next try is the probe

  // The probe re-closes the breaker and the hit path comes back.
  std::optional<net::HttpResponse> recovered;
  for (int i = 0; i < 40; ++i) {
    recovered = browser.get(url_of(cached), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    if (recovered->status == 200 &&
        !recovered->headers.get("X-IdICN-Stale").has_value()) {
      break;
    }
    sleep_ms(50);
  }
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->status, 200);
  EXPECT_FALSE(recovered->headers.get("X-IdICN-Stale").has_value());
  EXPECT_EQ(d.net.breaker_state("rp.pub"),
            runtime::CircuitBreaker::State::Closed);

  // Byte-identical hit path after full recovery.
  sleep_ms(5);
  const auto post_fault = browser.get(url_of(cached), &error);
  ASSERT_TRUE(post_fault.has_value()) << error;
  EXPECT_EQ(post_fault->serialize(), pre_fault->serialize());

  // And the uncached object is fetchable again.
  const auto late = browser.get(url_of(uncached), &error);
  ASSERT_TRUE(late.has_value()) << error;
  EXPECT_EQ(late->status, 200);
  EXPECT_EQ(late->body, "never fetched before the flap");
}

TEST(ChaosE2e, NrsOutageCachedContentStillRefreshes) {
  ChaosDeployment d;
  const auto name = d.publish("page", "v1");
  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  ASSERT_EQ(browser.get(url_of(name), &error).value().status, 200) << error;
  // Content changes upstream so the cached validators stop matching: the
  // cheap 304 revalidation path is off the table during the outage.
  d.publish("page", "v2");
  // Registered while the NRS was up, but never fetched — resolving it is
  // impossible during the outage.
  const auto unknown = d.publish("fresh", "needs resolution");

  d.stop_nrs();
  sleep_ms(5);

  // Resolution is down, but the proxy remembers where the entry came from
  // and refetches directly — fresh v2, not a stale v1 fallback.
  const auto refreshed = browser.get(url_of(name), &error);
  ASSERT_TRUE(refreshed.has_value()) << error;
  EXPECT_EQ(refreshed->status, 200);
  EXPECT_EQ(refreshed->body, "v2");
  EXPECT_FALSE(refreshed->headers.get("X-IdICN-Stale").has_value());

  // A name never fetched before cannot resolve while the NRS is dark.
  const auto unresolved = browser.get(url_of(unknown), &error);
  ASSERT_TRUE(unresolved.has_value()) << error;
  EXPECT_GE(unresolved->status, 500);

  // ---- recovery: the NRS comes back with its registrations intact -------
  d.restart_nrs();
  std::optional<net::HttpResponse> resolved;
  for (int i = 0; i < 40; ++i) {
    resolved = browser.get(url_of(unknown), &error);
    ASSERT_TRUE(resolved.has_value()) << error;
    if (resolved->status == 200) break;
    sleep_ms(50);
  }
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->status, 200);
  EXPECT_EQ(resolved->body, "needs resolution");
  EXPECT_EQ(d.net.breaker_state("nrs.consortium"),
            runtime::CircuitBreaker::State::Closed);
}

TEST(ChaosE2e, SlowPeerInjectedOverSocketNetDoesNotBreakServing) {
  ChaosDeployment d(/*freshness_ms=*/60'000, /*with_peer=*/true);
  const auto name = d.publish("shared", "peer copy");
  std::string error;

  // Warm the *peer* proxy so the cooperative query has something to find.
  runtime::HttpClient peer_browser("127.0.0.1", d.peer_server->port());
  ASSERT_EQ(peer_browser.get(url_of(name), &error).value().status, 200)
      << error;

  // Script 60 ms of extra latency on every upstream hop to the peer — the
  // FaultInjector is riding a real SocketNet here, not the simulator.
  net::FaultInjector::Rule slow;
  slow.to = "cache2.ad1";
  slow.kind = net::FaultInjector::FaultKind::Latency;
  slow.latency_ms = 60;
  d.faulty.add_rule(slow);

  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  const auto via_peer = browser.get(url_of(name), &error);
  ASSERT_TRUE(via_peer.has_value()) << error;
  EXPECT_EQ(via_peer->status, 200);
  EXPECT_EQ(via_peer->body, "peer copy");
  EXPECT_EQ(d.proxy.stats().peer_hits, 1u);
  EXPECT_GE(d.faulty.stats().delays, 1u);

  // Slow is not broken: nothing opened, nothing was dropped.
  EXPECT_EQ(d.net.breaker_state("cache2.ad1"),
            runtime::CircuitBreaker::State::Closed);
}

TEST(ChaosE2e, LatencyInjectedMissDoesNotDelayConcurrentHits) {
  // The mutual-stall regression (DESIGN §11): upstream fetches used to run
  // synchronously on the reactor thread, so one slow MISS froze every
  // other connection on the same worker. With the MISS parked on the event
  // loop, a Latency rule on the upstream must cost only the client that
  // asked for the cold object — concurrent cache-HIT clients on the SAME
  // single worker keep their sub-injection latency the whole time.
  ChaosDeployment d(/*freshness_ms=*/60'000, /*with_peer=*/false,
                    /*proxy_workers=*/1);
  const auto pinned = d.publish("pinned", "hot replica");
  const auto cold = d.publish("cold", "fetched through molasses");
  std::string error;
  {
    runtime::HttpClient warmer("127.0.0.1", d.proxy_server->port());
    ASSERT_EQ(warmer.get(url_of(pinned), &error).value().status, 200) << error;
  }

  net::FaultInjector::Rule slow;
  slow.to = "rp.pub";
  slow.kind = net::FaultInjector::FaultKind::Latency;
  slow.latency_ms = 500;
  d.faulty.add_rule(slow);

  std::atomic<bool> miss_done{false};
  std::atomic<int> miss_status{0};
  std::atomic<std::uint64_t> miss_ms{0};
  core::sync::Thread misser([&] {
    runtime::HttpClient client("127.0.0.1", d.proxy_server->port());
    std::string thread_error;
    const auto start = std::chrono::steady_clock::now();
    const auto response = client.get(url_of(cold), &thread_error);
    miss_ms.store(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    miss_status.store(response ? response->status : -1);
    miss_done.store(true);
  });

  // Hammer the hit path from a second connection while the MISS is parked.
  sleep_ms(50);
  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::uint64_t hits_during_miss = 0;
  std::uint64_t worst_hit_ms = 0;
  while (!miss_done.load() && hits_during_miss < 500) {
    const auto start = std::chrono::steady_clock::now();
    const auto hit = browser.get(url_of(pinned), &error);
    const auto took = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ASSERT_TRUE(hit.has_value()) << error;
    EXPECT_EQ(hit->status, 200);
    EXPECT_EQ(hit->body, "hot replica");
    if (!miss_done.load()) {
      ++hits_during_miss;
      worst_hit_ms = std::max(worst_hit_ms, took);
    }
  }
  misser.join();

  // The cold fetch really crossed the injected latency and succeeded.
  EXPECT_EQ(miss_status.load(), 200);
  EXPECT_GE(miss_ms.load(), 500u);
  EXPECT_GE(d.faulty.stats().delays, 1u);
  // The invariant: HITs flowed during the in-flight MISS, and none of
  // them came anywhere near the injected delay (p100 bound — with one
  // worker, a blocking fetch would have cost every one of them 500 ms).
  EXPECT_GE(hits_during_miss, 3u);
  EXPECT_LT(worst_hit_ms, 250u);
}

TEST(ChaosE2e, ConcurrentClientsSurviveOriginFlaps) {
  ChaosDeployment d;  // stale-on-every-request keeps the upstream path hot
  const auto name = d.publish("hot", "replica must never 5xx");
  {
    runtime::HttpClient warmup("127.0.0.1", d.proxy_server->port());
    std::string error;
    ASSERT_EQ(warmup.get(url_of(name), &error).value().status, 200) << error;
  }

  constexpr int kClients = 3;
  constexpr int kRequests = 30;
  core::sync::RelaxedCounter bad_statuses;
  core::sync::RelaxedCounter transport_errors;
  {
    std::vector<core::sync::Thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&d, &name, &bad_statuses, &transport_errors] {
        runtime::HttpClient client("127.0.0.1", d.proxy_server->port());
        for (int i = 0; i < kRequests; ++i) {
          std::string error;
          const auto response = client.get(url_of(name), &error);
          if (!response) {
            ++transport_errors;  // client-side; the proxy itself never died
            continue;
          }
          if (response->status != 200) ++bad_statuses;
          sleep_ms(5);
        }
      });
    }
    // Scripted flap schedule while the clients hammer the proxy.
    sleep_ms(100);
    d.stop_rp();
    sleep_ms(300);
    d.restart_rp();
    sleep_ms(200);
    d.stop_rp();
    sleep_ms(200);
    d.restart_rp();
    // core::sync::Thread joins on destruction.
  }

  // The replica existed the whole time: every well-formed round trip must
  // have produced a 200 (fresh, revalidated, or stale-with-warning).
  EXPECT_EQ(bad_statuses, 0u);
  EXPECT_EQ(transport_errors, 0u);
  EXPECT_GE(d.proxy.stats().stale_served + d.proxy.stats().hits,
            static_cast<std::uint64_t>(kClients));

  // Full recovery: the breaker re-closes and fresh misses flow again.
  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  std::optional<net::HttpResponse> recovered;
  for (int i = 0; i < 40; ++i) {
    recovered = browser.get(url_of(name), &error);
    ASSERT_TRUE(recovered.has_value()) << error;
    if (recovered->status == 200 &&
        !recovered->headers.get("X-IdICN-Stale").has_value()) {
      break;
    }
    sleep_ms(50);
  }
  EXPECT_EQ(d.net.breaker_state("rp.pub"),
            runtime::CircuitBreaker::State::Closed);
}

/// Order statistic over request latencies: index ⌈0.99·n⌉−1 of the sorted
/// samples (the same convention RttEstimator::quantile_us uses).
std::uint64_t p99_of(std::vector<std::uint64_t> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = (samples.size() * 99 + 99) / 100;  // ⌈0.99·n⌉
  return samples[std::max<std::size_t>(rank, 1) - 1];
}

struct TailRun {
  std::uint64_t p99_ms = 0;
  std::uint64_t fetches = 0;
  std::uint64_t hedges_sent = 0;
  std::uint64_t hedge_wins = 0;
  double budget_cap = 0.0;  ///< max duplicates the hedge budget ever allowed
};

/// One cold-MISS sweep over `objects` distinct names replicated on rp.pub
/// and rp2.pub, with rp.pub's latency degrading abruptly mid-sweep: the
/// first sends are healthy (seeding honest RTT estimates that keep rp.pub
/// ranked primary), then every send to it stalls 800 ms.
void run_latency_ramp_sweep(bool hedging, int objects, TailRun* out) {
  Proxy::Options popt = ChaosDeployment::proxy_options(/*freshness_ms=*/60'000,
                                                       /*shards=*/2);
  popt.fetch.hedging_enabled = hedging;
  // Well above the healthy RTT, far below the injected stall: the timer
  // only fires for genuine stragglers, never for the healthy replica.
  popt.fetch.hedge_min_delay_ms = 25;
  ChaosDeployment d(/*freshness_ms=*/60'000, /*with_peer=*/false,
                    /*proxy_workers=*/2, /*with_second_rp=*/true, popt);

  std::vector<SelfCertifyingName> names;
  names.reserve(static_cast<std::size_t>(objects));
  for (int i = 0; i < objects; ++i) {
    names.push_back(d.publish_replicated("tail" + std::to_string(i),
                                         "obj" + std::to_string(i) +
                                             std::string(512, 'x')));
  }

  // Degradation schedule on the proxy→rp.pub hop: sends 0–5 untouched,
  // then a hard 800 ms stall on every send (no recovery within the sweep).
  net::FaultInjector::Degradation stall;
  stall.to = "rp.pub";
  stall.ramp_start = 6;
  stall.ramp_sends = 1;  // step, not a slope: the worst-case straggler
  stall.start_latency_ms = 800;
  stall.peak_latency_ms = 800;
  d.faulty.add_degradation(stall);

  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  std::vector<std::uint64_t> latencies_ms;
  latencies_ms.reserve(names.size());
  for (const auto& name : names) {
    const auto start = std::chrono::steady_clock::now();
    const auto response = browser.get(url_of(name), &error);
    const auto took = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_EQ(response->status, 200) << response->body;
    latencies_ms.push_back(took);
  }

  out->p99_ms = p99_of(latencies_ms);
  const auto& stats = d.proxy.fetcher().stats();
  out->fetches = stats.fetches;
  out->hedges_sent = stats.hedges_sent;
  out->hedge_wins = stats.hedge_wins;
  const auto& budget = popt.fetch.hedge_budget;
  out->budget_cap =
      budget.initial_tokens +
      budget.tokens_per_request * static_cast<double>(out->fetches);
}

TEST(ChaosE2e, HedgingBoundsMissTailUnderLatencyRampedReplica) {
  // The latency-tail gate: under an injected straggler (latency step on
  // one of two replicas), MISS-path p99 with hedging must be at least 2×
  // lower than without, and hedge duplicates must stay inside the
  // retry-budget ratio (10 + 0.1 · fetches at the RetryBudget defaults).
  const int kObjects = 40;
  TailRun unhedged;
  TailRun hedged;
  ASSERT_NO_FATAL_FAILURE(
      run_latency_ramp_sweep(/*hedging=*/false, kObjects, &unhedged));
  ASSERT_NO_FATAL_FAILURE(
      run_latency_ramp_sweep(/*hedging=*/true, kObjects, &hedged));

  // The schedule actually bit: without hedging at least one cold MISS ate
  // the full injected stall (ranking re-routes later fetches, but the
  // straggler fetches themselves have no escape).
  EXPECT_EQ(unhedged.hedges_sent, 0u);
  ASSERT_GE(unhedged.p99_ms, 400u);

  // Hedging raced the stall: duplicates were sent, at least one won, and
  // the tail collapsed — ≥2× lower, with the step being ~10× the hedged
  // path's worst case as slack against scheduler noise.
  EXPECT_GE(hedged.hedges_sent, 1u);
  EXPECT_GE(hedged.hedge_wins, 1u);
  EXPECT_LE(hedged.p99_ms * 2, unhedged.p99_ms);

  // Bounded aggression: duplicates never exceed what the budget's token
  // arithmetic permits (initial grant + per-request trickle).
  EXPECT_EQ(hedged.fetches, static_cast<std::uint64_t>(kObjects));
  EXPECT_LE(static_cast<double>(hedged.hedges_sent), hedged.budget_cap);
}

}  // namespace
