// Hint-protocol tests: the testbed's topology-aware ClusterDirectory
// (nearest-first holder ranking, origin-cost bound, full-digest replace,
// size caps) and the proxy-side protocol mechanics over SimNet (stale-hint
// recovery, hop-limit enforcement, digest bounds, malformed hint POSTs).
#include <gtest/gtest.h>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "testbed/cluster.hpp"
#include "testbed/sibling_directory.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

// Abilene PoP ids in graph insertion order (see make_abilene()).
constexpr topology::PopId kSeattle = 0;
constexpr topology::PopId kSunnyvale = 1;
constexpr topology::PopId kLosAngeles = 2;
constexpr topology::PopId kDenver = 3;
constexpr topology::PopId kKansasCity = 4;
constexpr topology::PopId kNewYork = 10;

// --- ClusterDirectory over the Abilene counterpart network ----------------

struct DirectoryFixture {
  topology::HierarchicalNetwork network = testbed::counterpart_network("Abilene");
  testbed::ClusterDirectory directory{network, 256};

  DirectoryFixture() {
    for (topology::PopId p = 0; p < network.pop_count(); ++p) {
      directory.set_address(p, "pop" + std::to_string(p));
    }
  }
};

TEST(ClusterDirectory, RanksHoldersNearestFirst) {
  DirectoryFixture f;
  // Seattle's core costs: Sunnyvale 1, LosAngeles 2, NewYork 5.
  f.directory.ingest(kNewYork, {"h.example"});
  f.directory.ingest(kLosAngeles, {"h.example"});
  f.directory.ingest(kSunnyvale, {"h.example"});

  const auto holders = f.directory.holders_for(kSeattle, "h.example");
  ASSERT_EQ(holders.size(), 3u);
  EXPECT_EQ(holders[0], "pop1");   // Sunnyvale, cost 1
  EXPECT_EQ(holders[1], "pop2");   // LosAngeles, cost 2
  EXPECT_EQ(holders[2], "pop10");  // NewYork, cost 5
}

TEST(ClusterDirectory, OriginCostBoundsTheSearchInclusively) {
  DirectoryFixture f;
  // Origin at Denver: Seattle→Denver costs 1. A sibling at the same cost
  // (Sunnyvale, 1) is still offered — the simulator's `cost <= origin_cost`
  // acceptance — but KansasCity (cost 2) is farther than the origin.
  f.directory.set_origin("h.example", kDenver);
  f.directory.ingest(kSunnyvale, {"h.example"});
  f.directory.ingest(kKansasCity, {"h.example"});

  const auto holders = f.directory.holders_for(kSeattle, "h.example");
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0], "pop1");
}

TEST(ClusterDirectory, NeverOffersTheAskerItself) {
  DirectoryFixture f;
  f.directory.ingest(kSeattle, {"h.example"});
  f.directory.ingest(kSunnyvale, {"h.example"});
  const auto holders = f.directory.holders_for(kSeattle, "h.example");
  ASSERT_EQ(holders.size(), 1u);
  EXPECT_EQ(holders[0], "pop1");
}

TEST(ClusterDirectory, ForgetDropsAStaleEntry) {
  DirectoryFixture f;
  f.directory.ingest(kSunnyvale, {"h.example"});
  EXPECT_EQ(f.directory.holders_for(kSeattle, "h.example").size(), 1u);
  f.directory.forget(kSunnyvale, "h.example");
  EXPECT_TRUE(f.directory.holders_for(kSeattle, "h.example").empty());
  // Forgetting twice (or an entry never advertised) is a harmless no-op.
  f.directory.forget(kSunnyvale, "h.example");
  EXPECT_EQ(f.directory.entry_count(), 0u);
}

TEST(ClusterDirectory, DigestReplacesTheSendersWholeSet) {
  DirectoryFixture f;
  f.directory.ingest(kSunnyvale, {"a.example", "b.example"});
  f.directory.ingest(kSunnyvale, {"b.example", "c.example"});

  EXPECT_TRUE(f.directory.holders_for(kSeattle, "a.example").empty());
  EXPECT_EQ(f.directory.holders_for(kSeattle, "b.example").size(), 1u);
  EXPECT_EQ(f.directory.holders_for(kSeattle, "c.example").size(), 1u);
  EXPECT_EQ(f.directory.entry_count(), 2u);
}

TEST(ClusterDirectory, DigestSizeIsBoundedPerPop) {
  const topology::HierarchicalNetwork network =
      testbed::counterpart_network("Abilene");
  testbed::ClusterDirectory directory(network, 2);
  directory.set_address(kSunnyvale, "pop1");
  directory.ingest(kSunnyvale,
                   {"a.example", "b.example", "c.example", "d.example"});
  EXPECT_EQ(directory.entry_count(), 2u);
}

TEST(ClusterDirectory, AttributesAddressesAndIgnoresStrangers) {
  DirectoryFixture f;
  EXPECT_EQ(f.directory.pop_of("pop4").value_or(999), kKansasCity);
  EXPECT_FALSE(f.directory.pop_of("stranger.example").has_value());

  // A digest from an unregistered transport address is dropped, not
  // misattributed.
  testbed::PopDirectoryView view(&f.directory, kSeattle);
  view.ingest("stranger.example", {"h.example"});
  EXPECT_EQ(f.directory.entry_count(), 0u);
}

// --- proxy-side protocol mechanics over SimNet ----------------------------

/// Scripted SiblingDirectory: returns a fixed holder list and records what
/// the proxy ingests and forgets.
struct StubDirectory final : public SiblingDirectory {
  std::vector<net::Address> holder_list;
  std::vector<std::pair<net::Address, std::string>> forgotten;
  std::vector<std::pair<net::Address, std::vector<std::string>>> ingested;

  void ingest(const net::Address& sibling,
              const std::vector<std::string>& hosts) override {
    ingested.emplace_back(sibling, hosts);
  }
  void forget(const net::Address& sibling, const std::string& host) override {
    forgotten.emplace_back(sibling, host);
  }
  std::vector<net::Address> holders(const std::string&) override {
    return holder_list;
  }
};

struct HintDeployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{7777, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  Proxy proxy_a;
  Proxy proxy_b;
  StubDirectory directory_a;

  explicit HintDeployment(Proxy::Options options_a = {})
      : proxy_a(&net, "cache-a.ad1", "nrs", &dns, std::move(options_a)),
        proxy_b(&net, "cache-b.ad1", "nrs", &dns) {
    net.attach("nrs", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache-a.ad1", &proxy_a);
    net.attach("cache-b.ad1", &proxy_b);
    proxy_a.set_sibling_directory(&directory_a);
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  net::HttpResponse get(Proxy& proxy, const SelfCertifyingName& name) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + name.host() + "/";
    return proxy.handle_http(request, "client");
  }
};

TEST(HintProtocol, DirectoryHitServesFromSibling) {
  HintDeployment d;
  const auto name = d.publish("popular", "sibling-served bytes");
  EXPECT_EQ(d.get(d.proxy_b, name).status, 200);  // warm the sibling
  // The sibling's origin MISS transferred exactly the body.
  EXPECT_EQ(d.proxy_b.stats().bytes_from_origin.value(),
            std::string("sibling-served bytes").size());
  const std::uint64_t origin_bytes_before = d.proxy_a.stats().bytes_from_origin.value();
  const std::uint64_t sibling_hits_before = d.proxy_a.stats().sibling_hits.value();

  d.directory_a.holder_list = {"cache-b.ad1"};
  const net::HttpResponse response = d.get(d.proxy_a, name);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.get("X-Cache").value_or(""), "SIBLING");
  EXPECT_EQ(response.headers.get(kSourceHeader).value_or(""), "cache-b.ad1");
  EXPECT_EQ(response.full_body(), "sibling-served bytes");
  EXPECT_EQ(d.proxy_a.stats().sibling_hits.value(), sibling_hits_before + 1);
  // A sibling transfer stays in the cache tier: no origin bytes for A.
  EXPECT_EQ(d.proxy_a.stats().bytes_from_origin.value(), origin_bytes_before);
  EXPECT_TRUE(d.directory_a.forgotten.empty());
}

TEST(HintProtocol, StaleHintIsForgottenAndFallsThroughToOrigin) {
  HintDeployment d;
  const auto name = d.publish("evicted", "origin copy");

  // The directory claims B holds the object, but B's cache is cold: the
  // sibling fetch 404s, A forgets the stale hint and completes upstream.
  d.directory_a.holder_list = {"cache-b.ad1"};
  const net::HttpResponse response = d.get(d.proxy_a, name);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.get("X-Cache").value_or(""), "MISS");
  EXPECT_EQ(response.full_body(), "origin copy");
  EXPECT_EQ(d.proxy_a.stats().sibling_hits.value(), 0u);
  ASSERT_EQ(d.directory_a.forgotten.size(), 1u);
  EXPECT_EQ(d.directory_a.forgotten[0].first, "cache-b.ad1");
  EXPECT_EQ(d.directory_a.forgotten[0].second, name.host());
}

TEST(HintProtocol, SiblingFanoutBoundsStaleHintDamage) {
  Proxy::Options options;
  options.sibling_fanout = 1;
  HintDeployment d(options);
  const auto name = d.publish("bounded", "content");

  // Two candidates, both stale, fanout 1: only the first is tried (and
  // forgotten) before falling through upstream.
  d.directory_a.holder_list = {"cache-b.ad1", "cache-b.ad1"};
  EXPECT_EQ(d.get(d.proxy_a, name).status, 200);
  EXPECT_EQ(d.directory_a.forgotten.size(), 1u);
}

TEST(HintProtocol, HopLimitForcesCacheOnlyAnswer) {
  HintDeployment d;
  const auto name = d.publish("hoplimited", "content");
  EXPECT_EQ(d.get(d.proxy_b, name).status, 200);  // warm the sibling
  d.directory_a.holder_list = {"cache-b.ad1"};

  // A forwarded sibling fetch never recurses into name resolution — on a
  // miss the *requester* falls through to origin itself — and a request
  // already at the hop limit (default 2) may not even consult the
  // directory: it is answered strictly cache-only. Cold cache → 404, no
  // upstream traffic on behalf of the forwarding chain, despite the
  // directory pointing at a warm sibling.
  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  request.headers.set(kHopsHeader, "2");
  const std::uint64_t upstream_before =
      d.net.messages_between("cache-a.ad1", "rp.pub");
  const net::HttpResponse response =
      d.proxy_a.handle_http(request, "cache-b.ad1");
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(d.net.messages_between("cache-a.ad1", "rp.pub"), upstream_before);
  EXPECT_EQ(d.proxy_a.stats().sibling_hits.value(), 0u);

  // One hop below the limit the directory-guided forward is still allowed:
  // the chain extends to hops+1 = 2 ≤ limit and B serves from cache.
  request.headers.set(kHopsHeader, "1");
  const net::HttpResponse forwarded =
      d.proxy_a.handle_http(request, "cache-b.ad1");
  EXPECT_EQ(forwarded.status, 200);
  EXPECT_EQ(forwarded.headers.get("X-Cache").value_or(""), "SIBLING");
  EXPECT_EQ(d.net.messages_between("cache-a.ad1", "rp.pub"), upstream_before);
  EXPECT_EQ(d.proxy_a.stats().sibling_hits.value(), 1u);
}

TEST(HintProtocol, HintPostWithoutSenderIsRejected) {
  HintDeployment d;
  net::HttpRequest post;
  post.method = "POST";
  post.target = kHintPath;
  post.body = "host=a.example\n";
  EXPECT_EQ(d.proxy_a.handle_http(post, "cache-b.ad1").status, 400);
  EXPECT_TRUE(d.directory_a.ingested.empty());
}

TEST(HintProtocol, HintPostIngestsBoundedDigest) {
  Proxy::Options options;
  options.max_hint_entries = 2;
  HintDeployment d(options);

  net::HttpRequest post;
  post.method = "POST";
  post.target = kHintPath;
  post.headers.set(kHintHeader, "cache-b.ad1");
  post.body = "host=a.example\nhost=b.example\nhost=c.example\nhost=d.example\n";
  const net::HttpResponse response = d.proxy_a.handle_http(post, "cache-b.ad1");
  EXPECT_EQ(response.status, 204);
  ASSERT_EQ(d.directory_a.ingested.size(), 1u);
  EXPECT_EQ(d.directory_a.ingested[0].first, "cache-b.ad1");
  // Ingest-side truncation: the oversized digest is clamped to the bound.
  EXPECT_EQ(d.directory_a.ingested[0].second.size(), 2u);
  EXPECT_EQ(d.proxy_a.stats().hints_received.value(), 1u);
}

TEST(HintProtocol, HintDigestIsTruncatedToTheBound) {
  Proxy::Options options;
  options.max_hint_entries = 2;
  HintDeployment d(options);
  std::vector<SelfCertifyingName> names;
  for (int i = 0; i < 4; ++i) {
    names.push_back(
        d.publish("object-" + std::to_string(i), "body " + std::to_string(i)));
    EXPECT_EQ(d.get(d.proxy_a, names.back()).status, 200);
  }
  // A HIT makes the oldest object the most recent: the digest lists it
  // first, then the newest fetch, and drops the two in between.
  EXPECT_EQ(d.get(d.proxy_a, names[0]).headers.get("X-Cache"), "HIT");
  EXPECT_EQ(d.proxy_a.hint_digest(),
            (std::vector<std::string>{names[0].host(), names[3].host()}));
}

TEST(HintProtocol, PushHintsDeliversDigestToSiblings) {
  HintDeployment d;
  StubDirectory directory_b;
  d.proxy_b.set_sibling_directory(&directory_b);
  d.proxy_a.add_sibling("cache-b.ad1");

  const auto name = d.publish("advertised", "content");
  EXPECT_EQ(d.get(d.proxy_a, name).status, 200);  // warm A's cache

  d.proxy_a.push_hints();
  EXPECT_EQ(d.proxy_a.stats().hints_sent.value(), 1u);
  EXPECT_EQ(d.proxy_b.stats().hints_received.value(), 1u);
  ASSERT_EQ(directory_b.ingested.size(), 1u);
  EXPECT_EQ(directory_b.ingested[0].first, "cache-a.ad1");
  ASSERT_EQ(directory_b.ingested[0].second.size(), 1u);
  EXPECT_EQ(directory_b.ingested[0].second[0], name.host());
}

}  // namespace
