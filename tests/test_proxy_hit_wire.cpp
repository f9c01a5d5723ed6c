// Wire-level goldens for the proxy's cache HIT path: the exact bytes
// (HttpResponse::serialize()) of every HIT flavour, of the first MISS, and
// of the answers to hosts that are not canonical idICN names. The goldens
// pin the response format, so a faster HIT path has to produce the same
// bytes: header order, values, framing and body.
//
// The deployment is fully deterministic: a seeded Merkle signer, two
// reverse proxies publishing every object (two NRS locations, each
// advertising the other as a Link mirror), and SimNet's inline transport.
// The two proof-carrying HITs (X-IdICN-Want-Metadata, peer query) carry
// ~48 KB of signature hex each, so their goldens are the size and SHA-256
// of the wire bytes instead of the bytes themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "crypto/hex.hpp"
#include "crypto/sha256.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

constexpr const char* kBody =
    "idICN wire golden: a fixed printable body, served from the cache.\n";

Proxy::Options pop_options() {
  Proxy::Options options;
  options.pop_name = "fra";
  return options;
}

struct WireDeployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{777, 5};  // 32 one-time keys
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy rp1{&net, "rp.pub", "origin.pub", "nrs.consortium", &signer};
  ReverseProxy rp2{&net, "rp2.pub", "origin.pub", "nrs.consortium", &signer};
  Proxy proxy{&net, "cache.ad1", "nrs.consortium", &dns};
  Proxy pop_proxy{&net, "cache.fra", "nrs.consortium", &dns, pop_options()};

  WireDeployment() {
    net.attach("nrs.consortium", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &rp1);
    net.attach("rp2.pub", &rp2);
    net.attach("cache.ad1", &proxy);
    net.attach("cache.fra", &pop_proxy);
    rp1.add_mirror("rp2.pub");
    rp2.add_mirror("rp.pub");
  }

  /// Publish `body` under `label` on both replicas; the name's host.
  std::string publish(const std::string& label, const std::string& body) {
    origin.put(label, body);
    const auto name = rp1.publish(label);
    const auto twin = rp2.publish(label);
    if (!name || !twin) {
      ADD_FAILURE() << "publishing " << label << " failed";
      return {};
    }
    EXPECT_EQ(name->flat(), twin->flat());
    return name->host();
  }
};

net::HttpRequest get(std::string target) {
  net::HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  return request;
}

std::string wire(const net::HttpResponse& response) {
  return response.serialize();
}

/// "<size> <sha-256 hex>" of the wire bytes, for the proof-carrying HITs.
std::string wire_digest(const net::HttpResponse& response) {
  const std::string bytes = response.serialize();
  const crypto::Sha256Digest digest = crypto::Sha256::hash(bytes);
  return std::to_string(bytes.size()) + " " +
         crypto::hex_encode(std::span<const std::uint8_t>(digest));
}

std::string upper(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return text;
}

// --- goldens (captured before the parse-free HIT path existed) -----------

constexpr const char* kFirstMiss =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 66\r\n"
    "X-IdICN-Name: golden.l63stfkmfrf6f34qqvaaiqy6jiyeqfqm5uwkwgfd2ahwvjhfj2va.idicn.org\r\n"
    "X-IdICN-Digest: sha-256=c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\r\n"
    "Link: <rp.pub>; rel=duplicate\r\n"
    "Link: <rp2.pub>; rel=duplicate\r\n"
    "ETag: \"c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\"\r\n"
    "X-Cache: MISS\r\n"
    "Via: cache.ad1\r\n"
    "X-IdICN-Source: rp.pub\r\n"
    "\r\n"
    "idICN wire golden: a fixed printable body, served from the cache.\n";

constexpr const char* kPlainHit =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 66\r\n"
    "X-IdICN-Name: golden.l63stfkmfrf6f34qqvaaiqy6jiyeqfqm5uwkwgfd2ahwvjhfj2va.idicn.org\r\n"
    "X-IdICN-Digest: sha-256=c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\r\n"
    "Link: <rp.pub>; rel=duplicate\r\n"
    "Link: <rp2.pub>; rel=duplicate\r\n"
    "ETag: \"c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\"\r\n"
    "X-Cache: HIT\r\n"
    "Via: cache.ad1\r\n"
    "\r\n"
    "idICN wire golden: a fixed printable body, served from the cache.\n";

// Size and SHA-256 of a HIT carrying the full proof: X-IdICN-Want-Metadata
// and peer queries (which always get the proof) answer the same bytes.
constexpr const char* kProofHit =
    "50059 fa61725cc2bc325dc29e1f7c4dfbc2171318fe4d2164adafb304a08f06e0dfc4";

constexpr const char* kRangeHit =
    "HTTP/1.1 206 Partial Content\r\n"
    "Content-Type: text/plain\r\n"
    "X-IdICN-Name: golden.l63stfkmfrf6f34qqvaaiqy6jiyeqfqm5uwkwgfd2ahwvjhfj2va.idicn.org\r\n"
    "X-IdICN-Digest: sha-256=c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\r\n"
    "Link: <rp.pub>; rel=duplicate\r\n"
    "Link: <rp2.pub>; rel=duplicate\r\n"
    "ETag: \"c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\"\r\n"
    "X-Cache: HIT\r\n"
    "Via: cache.ad1\r\n"
    "Content-Range: bytes 6-25/66\r\n"
    "Content-Length: 20\r\n"
    "\r\n"
    "wire golden: a fixed";

constexpr const char* kPopMiss =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 66\r\n"
    "X-IdICN-Name: golden.l63stfkmfrf6f34qqvaaiqy6jiyeqfqm5uwkwgfd2ahwvjhfj2va.idicn.org\r\n"
    "X-IdICN-Digest: sha-256=c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\r\n"
    "Link: <rp.pub>; rel=duplicate\r\n"
    "Link: <rp2.pub>; rel=duplicate\r\n"
    "ETag: \"c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\"\r\n"
    "X-Cache: MISS\r\n"
    "Via: cache.fra\r\n"
    "X-IdICN-Source: rp.pub\r\n"
    "X-IdICN-PoP: fra\r\n"
    "\r\n"
    "idICN wire golden: a fixed printable body, served from the cache.\n";

constexpr const char* kPopHit =
    "HTTP/1.1 200 OK\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 66\r\n"
    "X-IdICN-Name: golden.l63stfkmfrf6f34qqvaaiqy6jiyeqfqm5uwkwgfd2ahwvjhfj2va.idicn.org\r\n"
    "X-IdICN-Digest: sha-256=c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\r\n"
    "Link: <rp.pub>; rel=duplicate\r\n"
    "Link: <rp2.pub>; rel=duplicate\r\n"
    "ETag: \"c8309887f9e354ead5c6194835d1ec08e64bd79e3e7d7a128ee69d0d25c71565\"\r\n"
    "X-Cache: HIT\r\n"
    "Via: cache.fra\r\n"
    "X-IdICN-PoP: fra\r\n"
    "\r\n"
    "idICN wire golden: a fixed printable body, served from the cache.\n";

constexpr const char* kLegacyAnswer =
    "HTTP/1.1 502 Bad Gateway\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 27\r\n"
    "\r\n"
    "legacy host did not resolve";

constexpr const char* kNoHostAnswer =
    "HTTP/1.1 400 Bad Request\r\n"
    "Content-Type: text/plain\r\n"
    "Content-Length: 21\r\n"
    "\r\n"
    "cannot determine host";

TEST(ProxyHitWire, HitFlavoursMatchGoldenBytes) {
  WireDeployment d;
  const std::string host = d.publish("golden", kBody);
  const std::string target = "http://" + host + "/";

  const net::HttpResponse miss = d.proxy.handle_http(get(target), "host.ad1");
  EXPECT_EQ(wire(miss), kFirstMiss);

  const net::HttpResponse plain = d.proxy.handle_http(get(target), "host.ad1");
  EXPECT_EQ(wire(plain), kPlainHit);

  net::HttpRequest want = get(target);
  want.headers.set(kWantMetadataHeader, "1");
  const net::HttpResponse with_proof = d.proxy.handle_http(want, "host.ad1");
  EXPECT_EQ(wire_digest(with_proof), kProofHit);

  net::HttpRequest ranged = get(target);
  ranged.headers.set("Range", "bytes=6-25");
  const net::HttpResponse partial = d.proxy.handle_http(ranged, "host.ad1");
  EXPECT_EQ(wire(partial), kRangeHit);

  net::HttpRequest peer = get(target);
  peer.headers.set(kIcpQueryHeader, "1");
  peer.headers.set(kWantMetadataHeader, "1");
  const net::HttpResponse peer_answer = d.proxy.handle_http(peer, "cache.ad2");
  EXPECT_EQ(wire_digest(peer_answer), kProofHit);

  // The host is case-insensitive and may come from the Host header of an
  // origin-form request: both are the same object and the same bytes.
  const net::HttpResponse shouted =
      d.proxy.handle_http(get("http://" + upper(host) + "/"), "host.ad1");
  EXPECT_EQ(wire(shouted), kPlainHit);
  net::HttpRequest origin_form = get("/");
  origin_form.headers.set("Host", host);
  const net::HttpResponse transparent = d.proxy.handle_http(origin_form, "host.ad1");
  EXPECT_EQ(wire(transparent), kPlainHit);
  net::HttpRequest origin_form_upper = get("/");
  origin_form_upper.headers.set("Host", upper(host));
  EXPECT_EQ(wire(d.proxy.handle_http(origin_form_upper, "host.ad1")), kPlainHit);

  const net::HttpResponse pop_miss = d.pop_proxy.handle_http(get(target), "host.fra");
  EXPECT_EQ(wire(pop_miss), kPopMiss);
  const net::HttpResponse pop_hit = d.pop_proxy.handle_http(get(target), "host.fra");
  EXPECT_EQ(wire(pop_hit), kPopHit);

  EXPECT_EQ(d.proxy.stats().misses, 1u);
  EXPECT_EQ(d.proxy.stats().hits, 7u);
  EXPECT_EQ(d.pop_proxy.stats().misses, 1u);
  EXPECT_EQ(d.pop_proxy.stats().hits, 1u);
}

// Hosts that only resemble a cached name never HIT: each gets the answer
// the parse-based path gives (a legacy forward that does not resolve, or
// 400 when the target is malformed and no Host header names the object).
TEST(ProxyHitWire, NonCanonicalHostsNeverHit) {
  WireDeployment d;
  const std::string host = d.publish("golden", kBody);
  ASSERT_EQ(d.proxy.handle_http(get("http://" + host + "/"), "host.ad1").status,
            200);
  ASSERT_TRUE(d.proxy.is_cached(host));

  std::string bad_base32 = host;
  bad_base32[host.find('.') + 1] = '1';  // '1' is not in the base32 alphabet
  const std::string publisher_suffix = host.substr(host.find('.'));
  const std::string long_host =
      std::string(300 - publisher_suffix.size(), 'a') + publisher_suffix;
  ASSERT_EQ(long_host.size(), 300u);

  struct Case {
    const char* what;
    std::string target;
    const char* golden;
  };
  const Case cases[] = {
      {"trailing dot", "http://" + host + "./", kLegacyAnswer},
      {"bad base32", "http://" + bad_base32 + "/", kLegacyAnswer},
      {"300-character host", "http://" + long_host + "/", kLegacyAnswer},
      {"whitespace in target", "http://" + host + "/ x", kNoHostAnswer},
      {"tab in host", "http://" + host.substr(0, 5) + "\t" + host.substr(5) + "/",
       kNoHostAnswer},
      {"port 0", "http://" + host + ":0/", kNoHostAnswer},
      {"port 65536", "http://" + host + ":65536/", kNoHostAnswer},
  };
  for (const Case& c : cases) {
    const std::uint64_t hits = d.proxy.stats().hits;
    const net::HttpResponse response = d.proxy.handle_http(get(c.target), "host.ad1");
    EXPECT_EQ(wire(response), c.golden) << c.what;
    EXPECT_EQ(d.proxy.stats().hits, hits) << c.what;
    EXPECT_FALSE(response.headers.contains("X-Cache")) << c.what;
  }
}

}  // namespace
