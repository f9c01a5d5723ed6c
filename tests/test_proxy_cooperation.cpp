// Tests for the edge-proxy extensions: cooperative (ICP-style) peer
// queries, ETag-based conditional revalidation, and client-side mobility.
#include <gtest/gtest.h>

#include "idicn/client.hpp"
#include "idicn/mobility.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

struct TwoProxyDeployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{31337, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  Proxy proxy_a{&net, "cache-a.ad1", "nrs", &dns};
  Proxy proxy_b{&net, "cache-b.ad1", "nrs", &dns};

  TwoProxyDeployment() {
    net.attach("nrs", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache-a.ad1", &proxy_a);
    net.attach("cache-b.ad1", &proxy_b);
    proxy_a.add_peer("cache-b.ad1");
    proxy_b.add_peer("cache-a.ad1");
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

TEST(ProxyCooperation, MissIsServedByPeerWithoutUpstreamFetch) {
  TwoProxyDeployment d;
  const SelfCertifyingName name = d.publish("shared", "cooperative content");

  // Warm proxy B from upstream: an origin transfer of the whole body.
  EXPECT_EQ(d.get(d.proxy_b, name).status, 200);
  EXPECT_EQ(d.proxy_b.stats().bytes_from_origin,
            std::string("cooperative content").size());
  const std::uint64_t upstream_before = d.net.messages_between("cache-a.ad1", "rp.pub");
  const std::uint64_t origin_bytes_before = d.proxy_a.stats().bytes_from_origin;

  // Proxy A misses locally but finds the object at its peer.
  const net::HttpResponse via_a = d.get(d.proxy_a, name);
  EXPECT_EQ(via_a.status, 200);
  EXPECT_EQ(via_a.full_body(), "cooperative content");
  EXPECT_EQ(d.proxy_a.stats().peer_hits, 1u);
  // …and never touched the (far) reverse proxy: a peer transfer stays in
  // the cache tier, so it adds nothing to A's origin bytes.
  EXPECT_EQ(d.net.messages_between("cache-a.ad1", "rp.pub"), upstream_before);
  EXPECT_EQ(d.proxy_a.stats().bytes_from_origin, origin_bytes_before);
  // The fetched copy was verified and is now cached locally.
  EXPECT_TRUE(d.proxy_a.is_cached(name.host()));
  EXPECT_EQ(d.get(d.proxy_a, name).headers.get("X-Cache"), "HIT");
}

TEST(ProxyCooperation, PeerQueriesNeverRecurse) {
  TwoProxyDeployment d;
  const SelfCertifyingName name = d.publish("uncached", "nobody has this yet");

  // Neither proxy has the object; A's peer query to B must NOT make B fetch
  // it upstream (that is what the cache-only marker prevents).
  const net::HttpResponse response = d.get(d.proxy_a, name);
  EXPECT_EQ(response.status, 200);          // A fetched upstream itself
  EXPECT_EQ(d.proxy_a.stats().peer_hits, 0u);
  EXPECT_FALSE(d.proxy_b.is_cached(name.host()));
  EXPECT_EQ(d.net.messages_between("cache-b.ad1", "rp.pub"), 0u);
}

TEST(ProxyCooperation, TamperingPeerIsRejected) {
  TwoProxyDeployment d;
  const SelfCertifyingName name = d.publish("victim", "authentic bytes");

  // An evil "peer" serves tampered bytes to cooperative queries.
  class EvilPeer : public net::SimHost {
  public:
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      return net::make_response(200, "evil bytes");
    }
  } evil;
  d.net.attach("evil.ad1", &evil);
  Proxy lonely(&d.net, "cache-c.ad1", "nrs", &d.dns);
  d.net.attach("cache-c.ad1", &lonely);
  lonely.add_peer("evil.ad1");

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  const net::HttpResponse response = lonely.handle_http(request, "client");
  // The evil peer's bytes fail verification; the proxy falls back to the
  // authentic upstream.
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.full_body(), "authentic bytes");
  EXPECT_GE(lonely.stats().verification_failures, 1u);
  EXPECT_EQ(lonely.stats().peer_hits, 0u);
}

TEST(ProxyCooperation, PeerAnsweringWithAnotherObjectIsRejected) {
  // The peer answers the query for `victim` with `other`'s authentic body
  // and proof from the same publisher: digest, key and signature all check
  // out, so only binding the proof's name to the requested one refuses it.
  TwoProxyDeployment d;
  const SelfCertifyingName other = d.publish("other", "another object's bytes");
  const SelfCertifyingName victim = d.publish("victim", "authentic bytes");
  net::HttpRequest fetch;
  fetch.method = "GET";
  fetch.target = "/";
  fetch.headers.set("Host", other.host());
  fetch.headers.set(kWantMetadataHeader, "1");
  class ReplayPeer : public net::SimHost {
  public:
    explicit ReplayPeer(net::HttpResponse reply) : reply_(std::move(reply)) {}
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      return reply_;
    }

  private:
    net::HttpResponse reply_;
  } replay(d.net.send("client", "rp.pub", fetch));
  d.net.attach("replay.ad1", &replay);
  Proxy lonely(&d.net, "cache-c.ad1", "nrs", &d.dns);
  d.net.attach("cache-c.ad1", &lonely);
  lonely.add_peer("replay.ad1");

  // Refused, the peer's copy is neither served nor cached: the proxy
  // fetches the authentic object upstream instead.
  const net::HttpResponse response = d.get(lonely, victim);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.full_body(), "authentic bytes");
  EXPECT_EQ(lonely.stats().verification_failures, 1u);
  EXPECT_EQ(lonely.stats().peer_hits, 0u);
  const net::HttpResponse hit = d.get(lonely, victim);
  EXPECT_EQ(hit.headers.get("X-Cache"), "HIT");
  EXPECT_EQ(hit.full_body(), "authentic bytes");
}

TEST(Revalidation, StaleEntryRenewedBy304) {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer(404, 5);
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy rp(&net, "rp.pub", "origin.pub", "nrs", &signer);
  Proxy::Options options;
  options.freshness_ms = 4;  // expires almost immediately
  Proxy proxy(&net, "cache.ad1", "nrs", &dns, options);
  net.attach("nrs", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &rp);
  net.attach("cache.ad1", &proxy);

  origin.put("page", "stable content");
  const auto name = rp.publish("page");
  ASSERT_TRUE(name.has_value());

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name->host() + "/";
  EXPECT_EQ(proxy.handle_http(request, "c").headers.get("X-Cache"), "MISS");

  // Advance the virtual clock beyond the freshness window.
  net::HttpRequest ping;
  ping.method = "GET";
  ping.target = "/resolve?name=" + name->host();
  for (int i = 0; i < 5; ++i) (void)net.send("x", "nrs", ping);

  const std::uint64_t bytes_before = net.bytes_sent();
  const net::HttpResponse renewed = proxy.handle_http(request, "c");
  EXPECT_EQ(renewed.status, 200);
  EXPECT_EQ(renewed.full_body(), "stable content");
  EXPECT_EQ(proxy.stats().revalidations, 1u);
  EXPECT_EQ(proxy.stats().revalidated_304, 1u);
  // The 304 exchange moved far fewer bytes than a full response would.
  EXPECT_LT(net.bytes_sent() - bytes_before,
            2 * renewed.serialize().size());
  // Served as a HIT (renewed, not refetched).
  EXPECT_EQ(renewed.headers.get("X-Cache"), "HIT");
}

TEST(Revalidation, ChangedContentIsRefetched) {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer(405, 5);
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy rp(&net, "rp.pub", "origin.pub", "nrs", &signer);
  Proxy::Options options;
  options.freshness_ms = 4;
  Proxy proxy(&net, "cache.ad1", "nrs", &dns, options);
  net.attach("nrs", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &rp);
  net.attach("cache.ad1", &proxy);

  origin.put("page", "version 1");
  const auto name = rp.publish("page");
  ASSERT_TRUE(name.has_value());

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name->host() + "/";
  EXPECT_EQ(proxy.handle_http(request, "c").full_body(), "version 1");

  // Publisher replaces the content (re-signs under the same name).
  origin.put("page", "version 2");
  ASSERT_TRUE(rp.publish("page").has_value());

  net::HttpRequest ping;
  ping.method = "GET";
  ping.target = "/resolve?name=" + name->host();
  for (int i = 0; i < 5; ++i) (void)net.send("x", "nrs", ping);

  const net::HttpResponse refreshed = proxy.handle_http(request, "c");
  EXPECT_EQ(refreshed.full_body(), "version 2");
  EXPECT_EQ(proxy.stats().revalidations, 1u);
  EXPECT_EQ(proxy.stats().revalidated_304, 0u);  // ETag changed → full 200
}

TEST(ClientMobility, DownloadSurvivesClientMove) {
  net::SimNet net;
  net::DnsService dns;
  MobileServer server(&net, &dns, "files.example", "server-addr");
  std::string payload(10'000, 'q');
  server.put("/doc", payload);

  MobileClient client(&net, &dns, "client-wifi");
  client.between_chunks = [&](std::uint64_t offset) {
    if (offset == 2'000) client.move_to("client-lte");  // wifi → cellular
    if (offset == 6'000) client.move_to("client-wifi2");
  };
  const auto result = client.download("files.example", "/doc", 1000);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.body, payload);
  EXPECT_EQ(client.address(), "client-wifi2");
  // One logical session across three client attachment points.
  EXPECT_EQ(server.sessions_created(), 1u);
}

}  // namespace
