// Multi-AD idICN deployment — the prototype and the simulator telling the
// same story.
//
// Builds four administrative domains, each with its own WPAD-configured
// edge proxy (pairs of ADs cooperate ICP-style), one publisher behind a
// far-away reverse proxy, and a shared name resolution consortium. Per-AD
// clients replay Zipf streams; the printed per-AD hit ratios approximate
// Che's analytic LRU prediction — the same edge-caching arithmetic the
// request-level simulator uses at ISP scale (§4's point, reproduced at the
// application layer).
//
//   $ ./examples/idicn_multi_ad
#include <cstdio>
#include <memory>
#include <random>

#include "analysis/che_approximation.hpp"
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

  constexpr int kAds = 4;
  constexpr int kCatalog = 400;
  constexpr int kRequestsPerAd = 4000;
  constexpr double kAlpha = 0.9;
  constexpr std::uint64_t kProxyBytes = 30'000;  // forces eviction pressure

  net::SimNet net;
  net.set_default_latency_ms(2);
  net.set_latency_ms("rp.pub", 35);  // the publisher is far from every AD

  net::DnsService dns;
  crypto::MerkleSigner signer(0xad5, 10);
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy reverse_proxy(&net, "rp.pub", "origin.pub", "nrs", &signer);
  net.attach("nrs", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &reverse_proxy);

  // One proxy per AD; ADs 0/1 and 2/3 cooperate pairwise.
  std::vector<std::unique_ptr<Proxy>> proxies;
  Proxy::Options proxy_options;
  proxy_options.capacity_bytes = kProxyBytes;
  for (int ad = 0; ad < kAds; ++ad) {
    const std::string address = "cache.ad" + std::to_string(ad);
    proxies.push_back(
        std::make_unique<Proxy>(&net, address, "nrs", &dns, proxy_options));
    net.attach(address, proxies.back().get());
  }
  proxies[0]->add_peer("cache.ad1");
  proxies[1]->add_peer("cache.ad0");
  proxies[2]->add_peer("cache.ad3");
  proxies[3]->add_peer("cache.ad2");

  // Publish the catalog (~150 bytes per object).
  std::vector<std::string> hosts;
  for (int i = 0; i < kCatalog; ++i) {
    const std::string label = "item-" + std::to_string(i);
    origin.put(label, "body-" + std::to_string(i) + std::string(140, 'd'));
    const auto name = reverse_proxy.publish(label);
    if (!name) return 1;
    hosts.push_back(name->host());
  }

  // Per-AD clients, auto-configured through their AD's WPAD.
  std::vector<std::unique_ptr<WpadService>> wpads;
  std::vector<std::unique_ptr<Client>> clients;
  for (int ad = 0; ad < kAds; ++ad) {
    wpads.push_back(
        std::make_unique<WpadService>(PacFile::idicn_default("cache.ad" + std::to_string(ad))));
    net.attach("wpad.ad" + std::to_string(ad), wpads.back().get());
    dns.update("wpad.ad" + std::to_string(ad), "wpad.ad" + std::to_string(ad));
    clients.push_back(std::make_unique<Client>(
        &net, "host.ad" + std::to_string(ad), &dns));
    NetworkEnvironment env;
    env.dns_domain = "ad" + std::to_string(ad);
    if (!clients.back()->auto_configure(env)) return 1;
  }

  // Replay interleaved Zipf streams.
  const workload::ZipfDistribution zipf(kCatalog, kAlpha);
  std::mt19937_64 rng(99);
  int failures = 0;
  for (int round = 0; round < kRequestsPerAd; ++round) {
    for (int ad = 0; ad < kAds; ++ad) {
      const auto result =
          clients[static_cast<std::size_t>(ad)]->get("http://" + hosts[zipf.sample(rng) - 1] + "/");
      failures += result.response.status != 200;
    }
  }

  // Compare against Che's prediction for an LRU cache of this byte budget.
  std::vector<double> popularity(kCatalog);
  for (int rank = 1; rank <= kCatalog; ++rank) {
    popularity[rank - 1] = zipf.probability(static_cast<std::uint32_t>(rank));
  }
  const double slots = static_cast<double>(kProxyBytes) / 150.0;  // ≈ objects that fit
  const double predicted = analysis::che_lru(popularity, slots).hit_ratio;

  std::printf("== Four-AD idICN deployment ==\n");
  std::printf("catalog %d objects, %d requests/AD, Zipf alpha %.1f, proxy %llu bytes\n\n",
              kCatalog, kRequestsPerAd, kAlpha,
              static_cast<unsigned long long>(kProxyBytes));
  std::printf("%-6s %10s %10s %10s %12s %14s\n", "AD", "hits", "misses", "peer-hits",
              "hit-ratio", "evictions");
  for (int ad = 0; ad < kAds; ++ad) {
    const Proxy::Stats& s = proxies[static_cast<std::size_t>(ad)]->stats();
    const double ratio =
        static_cast<double>(s.hits) / static_cast<double>(s.hits + s.misses);
    std::printf("%-6d %10llu %10llu %10llu %11.1f%% %14llu\n", ad,
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.peer_hits), ratio * 100,
                static_cast<unsigned long long>(s.evictions));
  }
  std::printf("\nChe approximation predicts %.1f%% for an LRU cache of ~%.0f objects\n",
              predicted * 100, slots);
  std::printf("failures: %d\n", failures);
  std::printf("\nEach AD gets its edge-cache benefit independently (and a little\n"
              "more from its one cooperating peer) -- no router support, no\n"
              "global adoption required.\n");
  return failures == 0 ? 0 : 1;
}
