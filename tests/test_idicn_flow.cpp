// End-to-end idICN integration tests: the full Figure-11 flow (publish →
// register → auto-configure → request → resolve → fetch → verify → cache →
// serve), plus the security and caching edge cases.
#include <gtest/gtest.h>

#include "idicn/client.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "idicn/wpad.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

/// A complete single-AD idICN deployment on a simulated internetwork.
struct Deployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{12345, 6};  // 64 one-time keys
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium", &signer};
  Proxy proxy{&net, "cache.ad1", "nrs.consortium", &dns};
  WpadService wpad{PacFile::idicn_default("cache.ad1")};
  Client client{&net, "host.ad1", &dns};

  Deployment() {
    net.attach("nrs.consortium", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
    net.attach("wpad.ad1", &wpad);
    dns.update("wpad.ad1", "wpad.ad1");
  }

  SelfCertifyingName publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }

  NetworkEnvironment environment() const {
    NetworkEnvironment env;
    env.dns_domain = "ad1";
    return env;
  }
};

TEST(IdicnFlow, FullPublishFetchVerifyCycle) {
  Deployment d;
  const SelfCertifyingName name = d.publish("headlines", "<html>news</html>");

  // Step 1: automatic proxy configuration via WPAD.
  ASSERT_TRUE(d.client.auto_configure(d.environment()));

  // Steps 2–7: fetch by name through the proxy.
  const auto first = d.client.get("http://" + name.host() + "/");
  EXPECT_EQ(first.response.status, 200);
  EXPECT_TRUE(first.via_proxy);
  EXPECT_EQ(first.response.body, "<html>news</html>");
  EXPECT_EQ(first.response.headers.get("X-Cache"), "MISS");

  // Second fetch: proxy cache hit; the reverse proxy is not contacted again.
  const std::uint64_t rp_messages = d.net.messages_between("cache.ad1", "rp.pub");
  const auto second = d.client.get("http://" + name.host() + "/");
  EXPECT_EQ(second.response.headers.get("X-Cache"), "HIT");
  EXPECT_EQ(d.net.messages_between("cache.ad1", "rp.pub"), rp_messages);
  EXPECT_EQ(d.proxy.stats().hits, 1u);
  EXPECT_EQ(d.proxy.stats().misses, 1u);
}

TEST(IdicnFlow, ClientVerifiesEndToEnd) {
  Deployment d;
  const SelfCertifyingName name = d.publish("video", "MPEG");
  Client verifying(&d.net, "careful.ad1", &d.dns, Client::Options{true});
  verifying.configure(PacFile::idicn_default("cache.ad1"));
  const auto result = verifying.get("http://" + name.host() + "/");
  EXPECT_EQ(result.response.status, 200);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.verify_result, VerifyResult::Ok);
}

TEST(IdicnFlow, TamperingProxyIsDetectedByClient) {
  // A man-in-the-middle proxy alters the body; a verifying client rejects.
  Deployment d;
  const SelfCertifyingName name = d.publish("doc", "authentic");

  class EvilProxy : public net::SimHost {
  public:
    explicit EvilProxy(Deployment* d) : d_(d) {}
    net::HttpResponse handle_http(const net::HttpRequest& request,
                                  const net::Address& from) override {
      net::HttpResponse response = d_->proxy.handle_http(request, from);
      response.body = "tampered!!";
      response.headers.set("Content-Length", std::to_string(response.body.size()));
      return response;
    }
    Deployment* d_;
  } evil(&d);
  d.net.attach("evil.ad1", &evil);

  Client verifying(&d.net, "victim.ad1", &d.dns, Client::Options{true});
  verifying.configure(PacFile::idicn_default("evil.ad1"));
  const auto result = verifying.get("http://" + name.host() + "/");
  EXPECT_EQ(result.response.status, 502);
  EXPECT_FALSE(result.verified);
  EXPECT_EQ(result.verify_result, VerifyResult::DigestMismatch);
}

TEST(IdicnFlow, ProxyRefusesInauthenticUpstream) {
  // The registered location serves garbage (not even metadata): the proxy
  // must answer 502 and cache nothing.
  Deployment d;
  crypto::MerkleSigner rogue_signer(999, 4);
  const std::string rogue_id = SelfCertifyingName::publisher_id(rogue_signer.root());
  const SelfCertifyingName name("fake", rogue_id);

  class GarbageHost : public net::SimHost {
  public:
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      return net::make_response(200, "junk without metadata");
    }
  } garbage;
  d.net.attach("garbage.host", &garbage);

  const auto signature = rogue_signer.sign(
      NameResolutionSystem::registration_signing_input(name, "garbage.host"));
  ASSERT_EQ(d.nrs.register_name(name, "garbage.host", rogue_signer.root(), signature),
            RegisterResult::Ok);

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  const net::HttpResponse response = d.proxy.handle_http(request, "someone");
  EXPECT_EQ(response.status, 502);
  EXPECT_EQ(d.proxy.stats().verification_failures, 1u);
  EXPECT_FALSE(d.proxy.is_cached(name.host()));
}

TEST(IdicnFlow, ProxyRefusesAnotherObjectsProof) {
  // A location answers for `victim` with `other`'s authentic body and
  // proof from the same publisher: digest, key and signature all check
  // out, so only binding the proof's name to the requested one refuses it.
  Deployment d;
  const SelfCertifyingName other = d.publish("other", "another object's bytes");
  net::HttpRequest fetch;
  fetch.method = "GET";
  fetch.target = "/";
  fetch.headers.set("Host", other.host());
  fetch.headers.set(kWantMetadataHeader, "1");
  class ReplayHost : public net::SimHost {
  public:
    explicit ReplayHost(net::HttpResponse reply) : reply_(std::move(reply)) {}
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      return reply_;
    }

  private:
    net::HttpResponse reply_;
  } replay(d.net.send("someone", "rp.pub", fetch));
  d.net.attach("replay.ad1", &replay);

  const SelfCertifyingName victim("victim", other.publisher());
  const auto signature = d.signer.sign(
      NameResolutionSystem::registration_signing_input(victim, "replay.ad1"));
  ASSERT_EQ(d.nrs.register_name(victim, "replay.ad1", d.signer.root(), signature),
            RegisterResult::Ok);
  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + victim.host() + "/";
  EXPECT_EQ(d.proxy.handle_http(request, "someone").status, 502);
  EXPECT_EQ(d.proxy.stats().verification_failures, 1u);
  EXPECT_FALSE(d.proxy.is_cached(victim.host()));

  // An authentic second location: the race picks the replay first, refuses
  // it again, and the ladder's fallback serves the authentic bytes.
  ASSERT_EQ(d.publish("victim", "authentic bytes"), victim);
  const net::HttpResponse fetched = d.proxy.handle_http(request, "someone");
  EXPECT_EQ(fetched.status, 200);
  EXPECT_EQ(fetched.full_body(), "authentic bytes");
  EXPECT_EQ(d.proxy.stats().verification_failures, 2u);
  const net::HttpResponse hit = d.proxy.handle_http(request, "someone");
  EXPECT_EQ(hit.headers.get("X-Cache"), "HIT");
  EXPECT_EQ(hit.full_body(), "authentic bytes");
}

TEST(IdicnFlow, UnresolvableNameIs404) {
  Deployment d;
  crypto::MerkleSigner other(7, 2);
  const SelfCertifyingName name("ghost", SelfCertifyingName::publisher_id(other.root()));
  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  EXPECT_EQ(d.proxy.handle_http(request, "c").status, 404);
}

TEST(IdicnFlow, LegacyHostsPassThrough) {
  Deployment d;
  class LegacySite : public net::SimHost {
  public:
    net::HttpResponse handle_http(const net::HttpRequest& request,
                                  const net::Address&) override {
      EXPECT_EQ(request.headers.get("Host"), "www.legacy.com");
      return net::make_response(200, "legacy page", "text/html");
    }
  } site;
  d.net.attach("legacy.addr", &site);
  d.dns.update("www.legacy.com", "legacy.addr");

  d.client.configure(PacFile::idicn_default("cache.ad1"));
  // PAC: only *.idicn.org goes through the proxy; legacy goes DIRECT.
  const auto direct = d.client.get("http://www.legacy.com/index.html");
  EXPECT_EQ(direct.response.status, 200);
  EXPECT_FALSE(direct.via_proxy);

  // Through-proxy legacy fetch also works (PAC default PROXY).
  auto pac = PacFile::parse("default PROXY cache.ad1\n");
  ASSERT_TRUE(pac.has_value());
  d.client.configure(*pac);
  const auto proxied = d.client.get("http://www.legacy.com/index.html");
  EXPECT_EQ(proxied.response.status, 200);
  EXPECT_TRUE(proxied.via_proxy);
  EXPECT_EQ(d.proxy.stats().legacy_forwards, 1u);
}

TEST(IdicnFlow, StaleEntriesAreRefetched) {
  Deployment d;
  d.net.set_default_latency_ms(1);
  Proxy::Options options;
  options.freshness_ms = 10;  // very short TTL
  Proxy impatient(&d.net, "cache2.ad1", "nrs.consortium", &d.dns, options);
  d.net.attach("cache2.ad1", &impatient);

  const SelfCertifyingName name = d.publish("obj", "v1");
  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  EXPECT_EQ(impatient.handle_http(request, "c").headers.get("X-Cache"), "MISS");
  EXPECT_EQ(impatient.handle_http(request, "c").headers.get("X-Cache"), "HIT");

  // Let the virtual clock pass the TTL with unrelated traffic. The stale
  // entry is renewed by a cheap conditional request (304), not a refetch.
  for (int i = 0; i < 20; ++i) (void)d.net.send("a", "nrs.consortium", request);
  const net::HttpResponse renewed = impatient.handle_http(request, "c");
  EXPECT_EQ(renewed.headers.get("X-Cache"), "HIT");
  EXPECT_EQ(renewed.full_body(), "v1");
  EXPECT_EQ(impatient.stats().expired, 1u);
  EXPECT_EQ(impatient.stats().revalidated_304, 1u);
}

TEST(IdicnFlow, ProxyCacheEvictsUnderPressure) {
  Deployment d;
  Proxy::Options options;
  options.capacity_bytes = 48;  // fits ~3 x 16-byte bodies
  Proxy tiny(&d.net, "tiny.ad1", "nrs.consortium", &d.dns, options);
  d.net.attach("tiny.ad1", &tiny);

  const auto get = [&tiny](const SelfCertifyingName& name) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + name.host() + "/";
    return tiny.handle_http(request, "c");
  };
  const auto cached = [&tiny](const std::vector<SelfCertifyingName>& held) {
    std::vector<std::string> hosts;
    for (const auto& name : held) {
      if (tiny.is_cached(name.host())) hosts.push_back(name.host());
    }
    return hosts;
  };

  std::vector<SelfCertifyingName> names;
  for (int i = 0; i < 5; ++i) {
    names.push_back(
        d.publish("obj-" + std::to_string(i), "0123456789abcdef"));  // 16 bytes
  }
  for (const auto& name : names) {
    EXPECT_EQ(get(name).status, 200);
  }
  EXPECT_LE(tiny.cached_bytes(), 48u);
  EXPECT_GT(tiny.stats().evictions, 0u);
  // Most recent object is cached, the oldest is not.
  EXPECT_TRUE(tiny.is_cached(names.back().host()));
  EXPECT_FALSE(tiny.is_cached(names.front().host()));
  EXPECT_EQ(tiny.stats().evictions, 2u);  // obj-0 and obj-1

  // A HIT on the oldest held entry (obj-2) makes obj-3 the next victim.
  EXPECT_EQ(get(names[2]).headers.get("X-Cache"), "HIT");
  names.push_back(d.publish("obj-5", "fedcba9876543210"));
  EXPECT_EQ(get(names[5]).headers.get("X-Cache"), "MISS");
  EXPECT_EQ(cached(names), (std::vector<std::string>{names[2].host(), names[4].host(),
                                                     names[5].host()}));
  EXPECT_EQ(tiny.stats().evictions, 3u);

  // Recency is now obj-5, obj-2, obj-4. A 32-byte body needs two victims,
  // the two least recent; an 8-byte body then needs one, obj-5, the least
  // recent, not the largest.
  names.push_back(d.publish("big", std::string(32, 'b')));
  EXPECT_EQ(get(names[6]).headers.get("X-Cache"), "MISS");
  EXPECT_EQ(cached(names), (std::vector<std::string>{names[5].host(), names[6].host()}));
  EXPECT_EQ(tiny.stats().evictions, 5u);
  EXPECT_EQ(tiny.cached_bytes(), 16u + 32u);
  names.push_back(d.publish("small", std::string(8, 's')));
  EXPECT_EQ(get(names[7]).headers.get("X-Cache"), "MISS");
  EXPECT_EQ(cached(names), (std::vector<std::string>{names[6].host(), names[7].host()}));
  EXPECT_EQ(tiny.stats().evictions, 6u);
  EXPECT_EQ(tiny.cached_bytes(), 32u + 8u);
  EXPECT_EQ(tiny.cached_objects(), 2u);

  // A body larger than the whole capacity is served, but neither cached
  // nor allowed to evict anything.
  const SelfCertifyingName huge = d.publish("huge", std::string(49, 'h'));
  const net::HttpResponse response = get(huge);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers.get("X-Cache"), "MISS");
  EXPECT_EQ(response.full_body(), std::string(49, 'h'));
  EXPECT_FALSE(tiny.is_cached(huge.host()));
  EXPECT_EQ(cached(names), (std::vector<std::string>{names[6].host(), names[7].host()}));
  EXPECT_EQ(tiny.stats().evictions, 6u);
  EXPECT_EQ(tiny.cached_bytes(), 32u + 8u);
}

TEST(IdicnFlow, PublisherDelegationIsFollowed) {
  Deployment d;
  // The consortium NRS knows only a P-level delegation to a fine-grained
  // resolver, which knows the exact name.
  NameResolutionSystem fine_resolver;
  d.net.attach("fine.resolver", &fine_resolver);

  crypto::MerkleSigner signer(55, 4);
  const std::string publisher = SelfCertifyingName::publisher_id(signer.root());
  const SelfCertifyingName name("deep", publisher);

  // Content served by a second reverse proxy owned by this publisher.
  OriginServer origin2;
  ReverseProxy rp2(&d.net, "rp2.pub", "origin2.pub", "fine.resolver", &signer);
  d.net.attach("origin2.pub", &origin2);
  d.net.attach("rp2.pub", &rp2);
  origin2.put("deep", "delegated content");
  ASSERT_TRUE(rp2.publish("deep").has_value());

  const auto delegation = signer.sign(
      NameResolutionSystem::delegation_signing_input(publisher, "fine.resolver"));
  ASSERT_EQ(d.nrs.register_resolver(publisher, "fine.resolver", signer.root(),
                                    delegation),
            RegisterResult::Ok);

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  const net::HttpResponse response = d.proxy.handle_http(request, "c");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.full_body(), "delegated content");
}

TEST(IdicnFlow, ReverseProxyCachesAfterPublish) {
  Deployment d;
  const SelfCertifyingName name = d.publish("obj", "content");
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/";
  request.headers.set("Host", name.host());
  (void)d.reverse_proxy.handle_http(request, "proxy");
  (void)d.reverse_proxy.handle_http(request, "proxy");
  // publish() fetched once from the origin; the two GETs were local.
  EXPECT_EQ(d.reverse_proxy.origin_fetches(), 1u);
  EXPECT_EQ(d.reverse_proxy.cache_hits(), 2u);
  EXPECT_EQ(d.origin.requests_served(), 1u);
}

TEST(IdicnFlow, ReverseProxyRejectsForeignNames) {
  Deployment d;
  crypto::MerkleSigner other(77, 2);
  const SelfCertifyingName foreign("x", SelfCertifyingName::publisher_id(other.root()));
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/";
  request.headers.set("Host", foreign.host());
  EXPECT_EQ(d.reverse_proxy.handle_http(request, "p").status, 403);
}

TEST(IdicnFlow, WpadDiscoveryViaDnsFallback) {
  Deployment d;
  // No DHCP option: discovery must find wpad.ad1 through DNS.
  NetworkEnvironment env;
  env.dns_domain = "ad1";
  Client fresh(&d.net, "laptop.ad1", &d.dns);
  EXPECT_TRUE(fresh.auto_configure(env));
  EXPECT_TRUE(fresh.configured());
}

TEST(IdicnFlow, WpadDiscoveryViaDhcpOption) {
  Deployment d;
  NetworkEnvironment env;
  env.dhcp_pac_url = "http://wpad.ad1/wpad.dat";
  Client fresh(&d.net, "laptop.ad1", &d.dns);
  EXPECT_TRUE(fresh.auto_configure(env));
}

TEST(IdicnFlow, WpadAbsentMeansUnconfigured) {
  Deployment d;
  NetworkEnvironment env;
  env.dns_domain = "nowhere";
  Client fresh(&d.net, "laptop.ad1", &d.dns);
  EXPECT_FALSE(fresh.auto_configure(env));
  EXPECT_FALSE(fresh.configured());
}


TEST(IdicnFlow, ExhaustedSignerFailsGracefully) {
  // A publisher identity with 2 one-time keys can publish exactly one
  // object (content + registration signatures); further publishes and
  // on-demand admissions refuse cleanly instead of throwing.
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner tiny_signer(0x717, 1);  // 2 one-time keys
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy rp(&net, "rp.pub", "origin.pub", "nrs", &tiny_signer);
  net.attach("nrs", &nrs);
  net.attach("origin.pub", &origin);
  net.attach("rp.pub", &rp);

  origin.put("first", "a");
  origin.put("second", "b");
  const auto first = rp.publish("first");
  EXPECT_TRUE(first.has_value());
  EXPECT_FALSE(rp.publish("second").has_value());  // exhausted: clean refusal

  // On-demand admission of an unsigned label also refuses with 503.
  const SelfCertifyingName unsigned_name("second", rp.publisher_id());
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/";
  request.headers.set("Host", unsigned_name.host());
  EXPECT_EQ(rp.handle_http(request, "proxy").status, 503);

  // The already-published object still serves fine.
  request.headers.set("Host", first->host());
  EXPECT_EQ(rp.handle_http(request, "proxy").status, 200);
}

}  // namespace
