// Async upstream MISS path, end to end over real sockets: the FetchOp
// continuation machine parking on a *single-worker* proxy while the
// upstream round trip proceeds loop-natively. One worker is the point —
// every invariant here was impossible when a MISS blocked the reactor:
//   * pipelined requests behind a parked MISS still answer, in FIFO order;
//   * a client that disconnects while parked aborts the fetch pre-head
//     (nothing is admitted to the cache, nothing crashes, the worker keeps
//     serving);
//   * retry backoff is a timer-wheel reschedule, so a dead upstream's
//     connect-timeout-and-retry ladder never delays concurrent HITs;
//   * the async connection pool probes borrowed fds (MSG_PEEK) and redials
//     when the upstream was restarted between requests.
// Timeouts and retry knobs are aggressive so the schedules run in test
// time under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sync.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/fault_injector.hpp"
#include "net/http_decoder.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/http_client.hpp"
#include "runtime/server_group.hpp"
#include "runtime/socket_net.hpp"
#include "runtime/tcp.hpp"
#include "tcp_test_util.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;
using Clock = std::chrono::steady_clock;

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::uint64_t ms_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            start)
          .count());
}

/// Short per-try timeouts, two tries, tiny backoff; a breaker loose enough
/// that a scripted failure never fast-fails the assertion that follows it.
runtime::SocketNet::Options async_net_options() {
  runtime::SocketNet::Options options;
  options.client.connect_timeout_ms = 250;
  options.client.io_timeout_ms = 2'000;
  options.retry.max_attempts = 2;
  options.retry.base_delay_ms = 5;
  options.retry.max_delay_ms = 20;
  options.retry.overall_deadline_ms = 2'000;
  options.breaker.failure_threshold = 10;
  options.breaker.open_ms = 300;
  options.budget.initial_tokens = 1'000;
  options.budget.tokens_per_request = 1;
  return options;
}

/// The single-AD socketed deployment with a SINGLE-worker edge proxy: one
/// reactor serves every connection, so anything that blocked the old MISS
/// path shows up as a stalled concurrent request. The proxy's upstream
/// transport is a FaultInjector over the SocketNet (latency scripting);
/// the reverse proxy can be killed and revived on the same port *without*
/// re-registering the endpoint, leaving the proxy's pooled async
/// connection stale on purpose.
struct AsyncDeployment {
  runtime::SocketNet net{async_net_options()};
  net::FaultInjector faulty{&net};
  net::DnsService dns;
  crypto::MerkleSigner signer{9'241, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  Proxy proxy;

  runtime::ServerGroup origin_server{&origin, "origin.pub"};
  std::unique_ptr<runtime::ServerGroup> nrs_server;
  std::unique_ptr<runtime::ServerGroup> rp_server;
  std::unique_ptr<runtime::ServerGroup> proxy_server;
  std::uint16_t rp_port = 0;

  static Proxy::Options proxy_options() {
    Proxy::Options options;
    options.freshness_ms = 60'000;  // warmed objects stay fresh all test
    options.cache_shards = 1;
    return options;
  }

  AsyncDeployment()
      : proxy{&faulty, "cache.ad1", "nrs.consortium", &dns, proxy_options()} {
    origin_server.start();
    net.register_endpoint(origin_server);
    nrs_server = std::make_unique<runtime::ServerGroup>(&nrs, "nrs.consortium");
    nrs_server->start();
    net.register_endpoint(*nrs_server);
    rp_server = std::make_unique<runtime::ServerGroup>(&reverse_proxy, "rp.pub");
    rp_port = rp_server->start();
    net.register_endpoint(*rp_server);
    runtime::ServerGroup::Options proxy_opts;
    proxy_opts.workers = 1;  // one reactor: parking is the only way out
    proxy_server = std::make_unique<runtime::ServerGroup>(&proxy, "cache.ad1",
                                                          proxy_opts);
    proxy_server->start();
    net.register_endpoint(*proxy_server);
  }

  ~AsyncDeployment() {
    proxy_server->stop();
    if (rp_server) rp_server->stop();
    nrs_server->stop();
    origin_server.stop();
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin_server.run_on_all_workers([&] { origin.put(label, body); });
    std::optional<SelfCertifyingName> name;
    rp_server->run_on_all_workers([&] { name = reverse_proxy.publish(label); });
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  void stop_rp() { rp_server->stop(); rp_server.reset(); }

  /// Revive the reverse proxy on the same port WITHOUT re-registering the
  /// endpoint (re-registration drops pooled connections — the stale-probe
  /// test needs them kept). The host:port mapping is unchanged, so only
  /// the pooled fds are dead.
  void restart_rp_keeping_pool() {
    rp_server = std::make_unique<runtime::ServerGroup>(&reverse_proxy, "rp.pub");
    for (int tries = 0;; ++tries) {
      try {
        rp_server->start(rp_port);
        return;
      } catch (const std::exception&) {
        if (tries >= 40) throw;  // ~2 s of grace for the old socket to fade
        sleep_ms(50);
      }
    }
  }

  void add_latency(const std::string& to, std::uint64_t ms) {
    net::FaultInjector::Rule slow;
    slow.to = to;
    slow.kind = net::FaultInjector::FaultKind::Latency;
    slow.latency_ms = ms;
    faulty.add_rule(slow);
  }
};

std::string url_of(const SelfCertifyingName& name) {
  return "http://" + name.host() + "/";
}

TEST(AsyncFetch, PipelinedRequestsBehindParkedMissAnswerInOrder) {
  AsyncDeployment d;
  const auto cold = d.publish("cold", "cold-body");
  const auto warm = d.publish("warm", "warm-body");
  std::string error;
  {
    runtime::HttpClient warmer("127.0.0.1", d.proxy_server->port());
    ASSERT_EQ(warmer.get(url_of(warm), &error).value().status, 200) << error;
  }
  // Every hop to the reverse proxy now takes 300 ms — the cold fetch must
  // park its connection for at least that long.
  d.add_latency("rp.pub", 300);

  // One connection, two back-to-back requests: a MISS that parks, then a
  // HIT the worker serves while the MISS is in flight. HTTP demands the
  // responses come back in request order, so the HIT's bytes queue behind
  // the parked slot instead of jumping it — and nothing is lost or
  // reordered when the fetch completion resumes the connection.
  const int fd =
      runtime::connect_tcp("127.0.0.1", d.proxy_server->port(), 2'000, nullptr);
  ASSERT_GE(fd, 0);
  runtime::ScopedFd sock(fd);
  runtime::set_io_timeout(sock.get(), 5'000);
  net::HttpRequest first;
  first.target = url_of(cold);
  net::HttpRequest second;
  second.target = url_of(warm);
  const std::string wire = first.serialize() + second.serialize();
  const auto start = Clock::now();
  ASSERT_EQ(::send(sock.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  std::vector<net::HttpResponse> responses;
  char buffer[4096];
  while (responses.size() < 2) {
    const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "connection died after " << responses.size()
                    << " responses";
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (auto response = decoder.next_response()) {
      responses.push_back(std::move(*response));
    }
  }
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body, "cold-body");
  EXPECT_EQ(responses[0].headers.get("X-Cache"), "MISS");
  EXPECT_EQ(responses[1].status, 200);
  EXPECT_EQ(responses[1].body, "warm-body");
  EXPECT_EQ(responses[1].headers.get("X-Cache"), "HIT");
  // The first response really waited out the injected latency (i.e. the
  // MISS parked; the HIT did not sneak ahead of an instant failure).
  EXPECT_GE(ms_since(start), 300u);
  EXPECT_GE(d.faulty.stats().delays, 1u);
}

TEST(AsyncFetch, ClientDisconnectAbortsParkedFetchPreHead) {
  AsyncDeployment d;
  const auto cold = d.publish("abandoned", "nobody reads this");
  d.add_latency("rp.pub", 400);

  // Raw client: fire the MISS, then vanish long before the delayed head
  // can arrive. The worker's close path aborts the parked FetchOp; the
  // halt flag makes the FetchSink refuse the transfer pre-head, so the
  // object must NOT be admitted to the cache on the client's behalf.
  {
    const int fd = runtime::connect_tcp("127.0.0.1", d.proxy_server->port(),
                                        2'000, nullptr);
    ASSERT_GE(fd, 0);
    runtime::ScopedFd sock(fd);
    net::HttpRequest request;
    request.target = url_of(cold);
    const std::string wire = request.serialize();
    ASSERT_EQ(::send(sock.get(), wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    sleep_ms(100);  // parked, head still ~300 ms out
  }                 // ScopedFd closes: the client is gone

  // Let the aborted fetch's completion (and any retry of it) drain.
  sleep_ms(1'000);

  // The worker survived and serves normally; the abandoned object was not
  // cached — a fresh client pays the MISS itself.
  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  const auto after = browser.get(url_of(cold), &error);
  ASSERT_TRUE(after.has_value()) << error;
  EXPECT_EQ(after->status, 200);
  EXPECT_EQ(after->body, "nobody reads this");
  EXPECT_EQ(after->headers.get("X-Cache"), "MISS");
  // And the second fetch admitted: one more round trip is a pure HIT.
  const auto again = browser.get(url_of(cold), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->headers.get("X-Cache"), "HIT");
}

TEST(AsyncFetch, StalePooledAsyncConnectionProbedAndRedialed) {
  AsyncDeployment d;
  const auto one = d.publish("first", "fills the pool");
  const auto two = d.publish("second", "rides a fresh dial");

  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  std::string error;
  const auto fill = browser.get(url_of(one), &error);
  ASSERT_TRUE(fill.has_value()) << error;
  ASSERT_EQ(fill->status, 200);  // MISS → async client dialed rp.pub, pooled

  // Kill the reverse proxy and revive it on the same port without touching
  // the endpoint registration: the parked async connection's peer is gone,
  // but the pool still holds the fd.
  d.stop_rp();
  d.restart_rp_keeping_pool();
  const auto drops_before = d.net.stats().stale_pool_drops;

  // The next MISS borrows from the async pool. The MSG_PEEK probe must see
  // the pending FIN, discard the corpse, and dial fresh — not surface a
  // spurious failure or replay against a dead socket.
  const auto refetched = browser.get(url_of(two), &error);
  ASSERT_TRUE(refetched.has_value()) << error;
  EXPECT_EQ(refetched->status, 200);
  EXPECT_EQ(refetched->body, "rides a fresh dial");
  EXPECT_GT(d.net.stats().stale_pool_drops, drops_before);
  EXPECT_EQ(d.proxy.stats().upstream_errors.value(), 0u);
}

TEST(AsyncFetch, RetryBackoffDoesNotBlockConcurrentHits) {
  AsyncDeployment d;
  const auto warm = d.publish("served", "stays fast");
  const auto doomed = d.publish("doomed", "upstream is down");
  std::string error;
  {
    runtime::HttpClient warmer("127.0.0.1", d.proxy_server->port());
    ASSERT_EQ(warmer.get(url_of(warm), &error).value().status, 200) << error;
  }
  // Upstream gone for good: the doomed fetch burns connect failures, a
  // timer-wheel backoff, and a second attempt before giving up. The
  // latency rule rides in front of the dead endpoint so each attempt
  // takes a measurable 300 ms — a refused connect alone is instant and
  // would close the observation window before the first concurrent HIT.
  d.stop_rp();
  d.add_latency("rp.pub", 300);

  std::atomic<bool> miss_done{false};
  std::atomic<int> miss_status{0};
  core::sync::Thread misser([&] {
    runtime::HttpClient client("127.0.0.1", d.proxy_server->port());
    std::string thread_error;
    const auto failed = client.get(url_of(doomed), &thread_error);
    miss_status.store(failed ? failed->status : -1);
    miss_done.store(true);
  });

  // While the retry ladder runs on the same single worker, HITs keep
  // being served — the backoff is a reschedule, not a sleeping reactor.
  sleep_ms(20);
  std::uint64_t hits_during_miss = 0;
  std::uint64_t worst_hit_ms = 0;
  runtime::HttpClient browser("127.0.0.1", d.proxy_server->port());
  while (!miss_done.load() && hits_during_miss < 200) {
    const auto t0 = Clock::now();
    const auto hit = browser.get(url_of(warm), &error);
    const auto took = ms_since(t0);
    ASSERT_TRUE(hit.has_value()) << error;
    EXPECT_EQ(hit->status, 200);
    if (!miss_done.load()) {
      ++hits_during_miss;
      worst_hit_ms = std::max(worst_hit_ms, took);
    }
  }
  misser.join();

  EXPECT_GE(miss_status.load(), 500);  // exhausted upstream → 5xx, not a hang
  EXPECT_GE(hits_during_miss, 1u);
  // Far under one connect timeout: the worker never sat in the ladder.
  EXPECT_LT(worst_hit_ms, 200u);
  EXPECT_GE(d.net.stats().retries, 1u);
}

/// Answers the first request with 503 + Retry-After, then recovers — the
/// wire shape of a breaker-fronted or over-capacity peer.
struct RetryAfterHost : net::SimHost {
  std::atomic<int> hits{0};
  net::HttpResponse handle_http(const net::HttpRequest& /*request*/,
                                const net::Address& /*from*/) override {
    if (hits.fetch_add(1) == 0) {
      auto refusal = net::make_response(503, "overloaded; come back");
      refusal.headers.set("Retry-After", "1");
      return refusal;
    }
    return net::make_response(200, "recovered");
  }
};

TEST(AsyncFetch, RetryAfterHintDelaysAsyncRetry) {
  // A 503 with a Retry-After hint must be replayed no earlier than the
  // hinted second — not on the generic ~5 ms backoff curve — and the
  // replay is a timer-wheel park, not a blocked thread. The blocking send
  // runs the same envelope on a lent loop, so it honours the hint too.
  for (const bool blocking : {false, true}) {
    SCOPED_TRACE(blocking ? "blocking send" : "send_async on a loop");
    runtime::EventLoop loop;
    runtime::SocketNet net(async_net_options());
    RetryAfterHost host;
    runtime::ServerGroup server(&host, "flaky.svc");
    server.start();
    net.register_endpoint(server);

    std::optional<net::HttpResponse> answer;
    std::uint64_t elapsed_ms = 0;
    net::HttpRequest request;
    request.method = "GET";
    request.target = "/";
    const auto t0 = Clock::now();
    if (blocking) {
      answer = net.send("client", "flaky.svc", request);
      elapsed_ms = ms_since(t0);
    } else {
      loop.post([&] {
        net.send_async("client", "flaky.svc", request, &loop,
                       [&](net::HttpResponse response) {
                         answer = std::move(response);
                         elapsed_ms = ms_since(t0);
                         loop.stop();
                       });
      });
      loop.run();
    }
    server.stop();

    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->status, 200);
    EXPECT_EQ(answer->body, "recovered");
    EXPECT_EQ(host.hits.load(), 2);
    EXPECT_GE(elapsed_ms, 1000u);  // no earlier than the hint
    EXPECT_EQ(net.stats().retry_after_honored, 1u);
    EXPECT_EQ(net.stats().retries, 1u);
  }
}

}  // namespace
