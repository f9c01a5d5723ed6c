// End-to-end §6 flow over real loopback TCP: every host (NRS, origin,
// reverse proxy, edge proxy) runs behind its own runtime::HostServer on a
// real socket, inter-host traffic rides runtime::SocketNet, and the
// "browser" is a stock blocking HttpClient. The host classes themselves
// are the exact ones the simulator uses — unmodified.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "crypto/lamport.hpp"
#include "idicn/name.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "runtime/host_server.hpp"
#include "runtime/http_client.hpp"
#include "runtime/socket_net.hpp"
#include "runtime/tcp.hpp"
#include "tcp_test_util.hpp"
#include "workload/size_model.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

/// The single-AD deployment of test_idicn_flow, but socketed: one server
/// per host, real TCP ports, one SocketNet carrying the upstream mesh.
/// `proxy_workers` > 1 turns the edge proxy into a multi-reactor
/// ServerGroup (with a matching number of content-store lock stripes), each
/// stripe caching up to capacity_bytes / proxy_workers.
struct SocketDeployment {
  runtime::SocketNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{12345, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  Proxy proxy;

  runtime::HostServer nrs_server{&nrs, "nrs.consortium"};
  runtime::HostServer origin_server{&origin, "origin.pub"};
  runtime::HostServer rp_server{&reverse_proxy, "rp.pub"};
  runtime::HostServer proxy_server;

  static runtime::HostServer::Options worker_options(std::size_t workers) {
    runtime::HostServer::Options options;
    options.workers = workers;
    return options;
  }

  static Proxy::Options proxy_options(std::size_t workers,
                                      std::uint64_t capacity_bytes) {
    Proxy::Options options;
    options.capacity_bytes = capacity_bytes;
    options.cache_shards = workers;
    return options;
  }

  explicit SocketDeployment(
      std::size_t proxy_workers = 1,
      std::uint64_t capacity_bytes = Proxy::Options{}.capacity_bytes)
      : proxy{&net, "cache.ad1", "nrs.consortium", &dns,
              proxy_options(proxy_workers, capacity_bytes)},
        proxy_server{&proxy, "cache.ad1", worker_options(proxy_workers)} {
    nrs_server.start();
    origin_server.start();
    rp_server.start();
    proxy_server.start();
    net.register_endpoint(nrs_server);
    net.register_endpoint(origin_server);
    net.register_endpoint(rp_server);
    net.register_endpoint(proxy_server);
  }

  ~SocketDeployment() {
    proxy_server.stop();
    rp_server.stop();
    origin_server.stop();
    nrs_server.stop();
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    // The origin and reverse proxy are owned by their worker threads while
    // the servers run: mutate them on those threads, not from the test.
    origin_server.run_on_loop([&] { origin.put(label, body); });
    std::optional<SelfCertifyingName> name;
    rp_server.run_on_loop([&] { name = reverse_proxy.publish(label); });
    EXPECT_TRUE(name.has_value());
    return *name;
  }
};

TEST(RuntimeE2e, PublishResolveFetchVerifyOverRealSockets) {
  SocketDeployment d;
  // publish() already crossed real sockets twice: the reverse proxy pulled
  // the object from the origin server and registered it with the NRS.
  const SelfCertifyingName name = d.publish("headlines", "<html>news</html>");
  EXPECT_GE(d.origin_server.stats().requests_served, 1u);
  EXPECT_GE(d.nrs_server.stats().requests_served, 1u);

  // A stock HTTP client pointed at the proxy's real port, absolute-form
  // target exactly as a browser configured with a proxy sends it.
  runtime::HttpClient browser("127.0.0.1", d.proxy_server.port());
  std::string error;
  const auto first = browser.get("http://" + name.host() + "/", &error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_EQ(first->status, 200);
  EXPECT_EQ(first->body, "<html>news</html>");
  EXPECT_EQ(first->headers.get("X-Cache"), "MISS");

  // Second fetch on the same keep-alive connection: proxy cache HIT, and
  // the reverse proxy sees no additional traffic.
  const std::uint64_t rp_requests = d.rp_server.stats().requests_served;
  const auto second = browser.get("http://" + name.host() + "/");
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->status, 200);
  EXPECT_EQ(second->headers.get("X-Cache"), "HIT");
  EXPECT_EQ(second->body, "<html>news</html>");
  EXPECT_EQ(d.rp_server.stats().requests_served, rp_requests);
  EXPECT_EQ(d.proxy.stats().hits, 1u);
  EXPECT_EQ(d.proxy.stats().misses, 1u);

  // Byte accounting (satellite: Proxy::Stats extension) adds up: the body
  // crossed origin→rp→proxy once and proxy→client twice.
  EXPECT_EQ(d.proxy.stats().bytes_from_origin, first->body.size());
  EXPECT_EQ(d.proxy.stats().bytes_served, 2 * first->body.size());
}

TEST(RuntimeE2e, VerificationFailureFallsBackToAuthenticReplica) {
  SocketDeployment d;

  // A host that serves bytes which cannot verify against the name.
  class TamperHost : public net::SimHost {
  public:
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      ++hits_;
      return net::make_response(200, "tampered bytes");
    }
    core::sync::RelaxedCounter hits_;  ///< sampled while the server runs
  } tamper;
  runtime::HostServer tamper_server(&tamper, "tamper.host");
  tamper_server.start();
  d.net.register_endpoint(tamper_server);

  // Register the tamper location FIRST so the NRS lists it ahead of the
  // reverse proxy; the publisher key is genuine (same signer), only the
  // content is wrong — exactly the attack verification must catch.
  const SelfCertifyingName name(
      "report", SelfCertifyingName::publisher_id(d.signer.root()));
  const auto signature = d.signer.sign(
      NameResolutionSystem::registration_signing_input(name, "tamper.host"));
  RegisterResult registered = RegisterResult::BadSignature;
  d.nrs_server.run_on_loop([&] {
    registered = d.nrs.register_name(name, "tamper.host", d.signer.root(),
                                     signature);
  });
  ASSERT_EQ(registered, RegisterResult::Ok);
  const SelfCertifyingName published = d.publish("report", "authentic report");
  ASSERT_EQ(published.host(), name.host());

  runtime::HttpClient browser("127.0.0.1", d.proxy_server.port());
  const auto response = browser.get("http://" + name.host() + "/");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "authentic report");  // fell back past the tamperer
  EXPECT_EQ(tamper.hits_, 1u);
  EXPECT_GE(d.proxy.stats().verification_failures, 1u);
  tamper_server.stop();
}

TEST(RuntimeE2e, UnresolvableNameIs404OverSockets) {
  SocketDeployment d;
  crypto::MerkleSigner stranger(7, 2);
  const SelfCertifyingName ghost(
      "ghost", SelfCertifyingName::publisher_id(stranger.root()));
  runtime::HttpClient browser("127.0.0.1", d.proxy_server.port());
  const auto response = browser.get("http://" + ghost.host() + "/");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
}

TEST(RuntimeE2e, ManyRequestsOneConnectionStaysConsistent) {
  SocketDeployment d;
  const SelfCertifyingName name = d.publish("obj", "payload-bytes");
  runtime::HttpClient browser("127.0.0.1", d.proxy_server.port());
  for (int i = 0; i < 100; ++i) {
    const auto response = browser.get("http://" + name.host() + "/");
    ASSERT_TRUE(response.has_value()) << "request " << i;
    ASSERT_EQ(response->status, 200);
    ASSERT_EQ(response->body, "payload-bytes");
  }
  EXPECT_EQ(d.proxy_server.stats().connections_accepted, 1u);
  EXPECT_EQ(d.proxy_server.stats().requests_served, 100u);
  EXPECT_EQ(d.proxy.stats().hits, 99u);
}

// ---------------------------------------------------------------------------
// Multi-reactor proxy (PR 4): M keep-alive client threads vs N workers

std::size_t e2e_proxy_workers() {
  if (const char* env = std::getenv("IDICN_E2E_PROXY_WORKERS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 4;
}

/// Bytes that depend on their position (the top byte of a Fibonacci hash
/// of it), so a dropped, repeated or reordered chunk cannot compare equal.
std::string position_dependent_bytes(std::size_t size) {
  std::string bytes(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((static_cast<std::uint32_t>(i) * 0x9e3779b1u) >> 24);
  }
  return bytes;
}

/// 16 bodies with Pareto sizes of mean 64 KB from a fixed seed (22 KB to
/// 165 KB, 679 KB in all): each arrives, streams to joiners and is served
/// from the cache as many chunks, not one.
std::vector<std::string> heavy_tailed_bodies() {
  const workload::SizeModel sizes(workload::SizeModelKind::Pareto, 65536);
  std::mt19937_64 rng(0x1d1c4u);
  std::vector<std::string> bodies;
  for (int k = 0; k < 16; ++k) {
    bodies.push_back(
        position_dependent_bytes(static_cast<std::size_t>(sizes.sample(rng))));
  }
  return bodies;
}

/// Publishes `bodies` through a proxy of e2e_proxy_workers() workers whose
/// every lock stripe can hold the whole catalog, then has 4 keep-alive
/// clients, each on its own connection, fetch object (i + c) % size for
/// i < 50 and compare every answer with the published bytes. A client's
/// first fetch of an object MISSes or joins an in-flight fetch (STREAM);
/// every later one must HIT.
void serve_catalog_to_concurrent_clients(const std::vector<std::string>& bodies) {
  const std::size_t workers = e2e_proxy_workers();
  std::uint64_t catalog_bytes = 0;
  for (const std::string& body : bodies) catalog_bytes += body.size();
  SocketDeployment d(workers, workers * catalog_bytes);
  ASSERT_EQ(d.proxy_server.worker_count(), workers);
  // publish() goes through run_on_loop — the all-workers rendezvous — so
  // this also exercises the exclusivity door at full worker count.
  std::vector<std::string> targets;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    const SelfCertifyingName name =
        d.publish("object-" + std::to_string(k), bodies[k]);
    targets.push_back("http://" + name.host() + "/");
  }

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> failures{0};
  {
    std::vector<core::sync::Thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        runtime::HttpClient browser("127.0.0.1", d.proxy_server.port());
        for (int i = 0; i < kRequestsPerClient; ++i) {
          const std::size_t k = static_cast<std::size_t>(i + c) % bodies.size();
          const auto response = browser.get(targets[k]);
          if (!response || response->status != 200 ||
              response->body != bodies[k]) {
            failures.fetch_add(1);
          }
        }
      });
    }
  }  // all clients joined

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kClients) * kRequestsPerClient;
  const std::uint64_t objects = bodies.size();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(d.proxy_server.stats().requests_served, kTotal);
  EXPECT_EQ(d.proxy_server.stats().connections_accepted,
            static_cast<std::uint64_t>(kClients));
  // Every request is a hit, a miss, or a stream join onto a first fetch
  // still in flight; racing first fetches may produce a few extra misses
  // (the documented double-fetch window), but the steady state must be
  // overwhelmingly hits.
  const std::uint64_t hits = d.proxy.stats().hits.value();
  const std::uint64_t misses = d.proxy.stats().misses.value();
  EXPECT_EQ(hits + misses + d.proxy.stats().stream_joins.value(), kTotal);
  EXPECT_GE(misses, objects);
  EXPECT_GE(hits, kTotal - objects * kClients);
  EXPECT_EQ(d.proxy.stats().evictions, 0u);
  EXPECT_EQ(d.proxy.stats().verification_failures, 0u);
}

TEST(RuntimeE2e, MultiWorkerProxyServesConcurrentKeepAliveClients) {
  {
    SCOPED_TRACE("unit-size catalog");
    serve_catalog_to_concurrent_clients({"body-alpha", "body-beta"});
  }
  {
    SCOPED_TRACE("heavy-tailed catalog");
    serve_catalog_to_concurrent_clients(heavy_tailed_bodies());
  }
}

TEST(RuntimeE2e, MultiWorkerProxyAnswersPipelinedBurstsInOrder) {
  const std::size_t workers = e2e_proxy_workers();
  SocketDeployment d(workers);
  const SelfCertifyingName name = d.publish("burst", "pipelined-body");
  const std::string target = "http://" + name.host() + "/";

  // Two raw-socket clients, each firing bursts of 8 back-to-back requests
  // and demanding 8 in-order responses — pipelining across a sharded
  // server must stay per-connection FIFO (each connection lives on
  // exactly one worker).
  constexpr int kThreads = 2;
  constexpr int kBursts = 5;
  constexpr int kDepth = 8;
  std::atomic<int> failures{0};
  {
    std::vector<core::sync::Thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const int fd =
            runtime::connect_tcp("127.0.0.1", d.proxy_server.port(), 2000,
                                 nullptr);
        if (fd < 0) {
          failures.fetch_add(kBursts * kDepth);
          return;
        }
        runtime::ScopedFd sock(fd);
        runtime::set_io_timeout(sock.get(), 10'000);
        net::HttpRequest request;
        request.target = target;
        std::string wire;
        for (int i = 0; i < kDepth; ++i) wire += request.serialize();

        net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
        char buffer[4096];
        for (int burst = 0; burst < kBursts; ++burst) {
          if (::send(sock.get(), wire.data(), wire.size(), 0) !=
              static_cast<ssize_t>(wire.size())) {
            failures.fetch_add(kDepth);
            continue;
          }
          int answered = 0;
          while (answered < kDepth) {
            const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
            if (n <= 0) break;
            decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
            while (const auto response = decoder.next_response()) {
              if (response->status != 200 ||
                  response->body != "pipelined-body") {
                failures.fetch_add(1);
              }
              ++answered;
            }
          }
          if (answered != kDepth) failures.fetch_add(kDepth - answered);
        }
      });
    }
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(d.proxy_server.stats().requests_served,
            static_cast<std::uint64_t>(kThreads) * kBursts * kDepth);
}

}  // namespace
