// idICN prototype microbenchmark (§6): end-to-end functional exercise with
// message/byte/virtual-latency accounting.
//
// Deploys a complete idICN stack on the simulated internetwork, publishes a
// content catalog, replays a Zipf request stream through the edge proxy,
// and reports hit ratios, per-request message costs, and virtual latency —
// the "edge caching + end-to-end security" operating point the paper
// argues for.
#include <cstdio>
#include <random>

#include "idicn/client.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "idicn/wpad.hpp"
#include "workload/zipf.hpp"

int main() {
  using namespace idicn;
  using namespace ::idicn::idicn;

  constexpr int kCatalog = 200;
  constexpr int kRequests = 5000;
  constexpr double kAlpha = 1.0;

  net::SimNet net;
  net.set_default_latency_ms(2);
  net.set_latency_ms("origin.pub", 40);  // the origin is far
  net.set_latency_ms("rp.pub", 30);      // the reverse proxy nearly as far
  net.set_latency_ms("cache.ad1", 2);    // the AD proxy is near

  net::DnsService dns;
  crypto::MerkleSigner signer(0xbeef, 10);  // 1024 one-time keys
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy reverse_proxy(&net, "rp.pub", "origin.pub", "nrs.consortium", &signer);
  Proxy::Options proxy_options;
  proxy_options.capacity_bytes = 1 << 22;
  Proxy proxy(&net, "cache.ad1", "nrs.consortium", &dns, proxy_options);
  Client client(&net, "host.ad1", &dns);
  client.configure(PacFile::idicn_default("cache.ad1"));

  net.attach("nrs.consortium", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &reverse_proxy);
  net.attach("cache.ad1", &proxy);

  // Publish the catalog.
  std::vector<std::string> hosts;
  for (int i = 0; i < kCatalog; ++i) {
    const std::string label = "object-" + std::to_string(i);
    origin.put(label, "content-body-" + std::to_string(i) + std::string(512, 'x'));
    const auto name = reverse_proxy.publish(label);
    if (!name) {
      std::fprintf(stderr, "publish failed for %s\n", label.c_str());
      return 1;
    }
    hosts.push_back(name->host());
  }
  const std::uint64_t publish_messages = net.messages_sent();
  const std::uint64_t publish_clock = net.now_ms();

  // Replay a Zipf stream through the proxy.
  const workload::ZipfDistribution zipf(kCatalog, kAlpha);
  std::mt19937_64 rng(7);
  std::uint64_t ok = 0;
  double total_latency = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t before = net.now_ms();
    const auto result = client.get("http://" + hosts[zipf.sample(rng) - 1] + "/");
    total_latency += static_cast<double>(net.now_ms() - before);
    ok += result.response.status == 200;
  }

  const Proxy::Stats& stats = proxy.stats();
  std::printf("== idICN prototype microbenchmark ==\n");
  std::printf("catalog: %d objects; requests: %d (Zipf alpha %.1f)\n\n", kCatalog,
              kRequests, kAlpha);
  std::printf("publish phase : %llu messages, %llu virtual ms\n",
              static_cast<unsigned long long>(publish_messages),
              static_cast<unsigned long long>(publish_clock));
  std::printf("request phase : %llu messages total, %.2f msgs/request\n",
              static_cast<unsigned long long>(net.messages_sent() - publish_messages),
              static_cast<double>(net.messages_sent() - publish_messages) / kRequests);
  std::printf("success       : %llu/%d\n", static_cast<unsigned long long>(ok),
              kRequests);
  std::printf("proxy hits    : %llu (%.1f%%), misses %llu, verification failures %llu\n",
              static_cast<unsigned long long>(stats.hits),
              100.0 * static_cast<double>(stats.hits) / kRequests,
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.verification_failures));
  std::printf("mean latency  : %.2f virtual ms/request (origin RTT would be %.0f)\n",
              total_latency / kRequests, 2.0 * (40.0 + 2.0));
  std::printf("proxy cache   : %zu objects, %llu bytes\n", proxy.cached_objects(),
              static_cast<unsigned long long>(proxy.cached_bytes()));
  std::printf("\nexpected shape: hit ratio near the Zipf cacheable mass; hits cost\n"
              "2 messages and ~8 virtual ms; only misses touch the far reverse proxy\n");
  return ok == kRequests ? 0 : 1;
}
