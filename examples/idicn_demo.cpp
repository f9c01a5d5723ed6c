// idICN end-to-end walkthrough — the paper's Figure 11 flow, narrated.
//
// Publishes content through a reverse proxy, auto-configures a client via
// WPAD, fetches by self-certifying name through the AD's edge proxy, shows
// the cache hit on re-fetch, and demonstrates that a tampering middlebox is
// caught by content-oriented verification.
//
//   $ ./examples/idicn_demo
#include <cstdio>

#include "idicn/client.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "idicn/wpad.hpp"

int main() {
  using namespace idicn;
  using namespace ::idicn::idicn;

  net::SimNet net;
  net::DnsService dns;

  // The publisher's long-lived hash-based key; its fingerprint is the P
  // component of every name this publisher registers.
  crypto::MerkleSigner publisher_key(2024, 6);

  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy reverse_proxy(&net, "rp.publisher.example", "origin.publisher.example",
                             "nrs.idicn.org", &publisher_key);
  Proxy edge_proxy(&net, "cache.ad1.example", "nrs.idicn.org", &dns);
  WpadService wpad(PacFile::idicn_default("cache.ad1.example"));

  net.attach("nrs.idicn.org", &nrs);
  net.attach("origin.publisher.example", &origin);
  net.attach("rp.publisher.example", &reverse_proxy);
  net.attach("cache.ad1.example", &edge_proxy);
  net.attach("wpad.ad1", &wpad);
  dns.update("wpad.ad1", "wpad.ad1");

  std::printf("== idICN walkthrough ==\n\n");
  std::printf("publisher id (P): %s\n\n", reverse_proxy.publisher_id().c_str());

  // Steps P1–P2: the origin publishes through the reverse proxy.
  origin.put("headlines", "<html><h1>All the news</h1></html>", "text/html");
  const auto name = reverse_proxy.publish("headlines");
  if (!name) {
    std::fprintf(stderr, "publish failed\n");
    return 1;
  }
  std::printf("[P1,P2] published %s\n", name->host().c_str());

  // Step 1: the client discovers its proxy automatically.
  Client client(&net, "laptop.ad1", &dns, Client::Options{/*verify_end_to_end=*/true});
  NetworkEnvironment env;
  env.dns_domain = "ad1";
  if (!client.auto_configure(env)) {
    std::fprintf(stderr, "WPAD discovery failed\n");
    return 1;
  }
  std::printf("[1]     WPAD configured the client to use cache.ad1.example\n");

  // Steps 2–7: fetch by name; proxy resolves, fetches, verifies, caches.
  const std::string url = "http://" + name->host() + "/";
  const auto first = client.get(url);
  std::printf("[2-7]   GET %s -> %d (%s), verified=%s\n", url.c_str(),
              first.response.status,
              first.response.headers.get("X-Cache").value_or("?").c_str(),
              first.verified ? "yes" : "no");

  const auto second = client.get(url);
  std::printf("[2,7]   GET again            -> %d (%s)  [served from the edge]\n",
              second.response.status,
              second.response.headers.get("X-Cache").value_or("?").c_str());

  // A tampering middlebox: flips bytes in transit. The client's
  // content-oriented verification catches it without trusting any channel.
  class Tamperer : public net::SimHost {
  public:
    explicit Tamperer(Proxy* upstream) : upstream_(upstream) {}
    net::HttpResponse handle_http(const net::HttpRequest& request,
                                  const net::Address& from) override {
      net::HttpResponse response = upstream_->handle_http(request, from);
      // The proxy answers with chunks shared with its cached entry: flip a
      // byte of a private copy, or every later reader would see it too.
      response.body = response.full_body();
      response.stream_body.clear();
      if (!response.body.empty()) response.body[0] ^= 0x20;
      response.headers.set("Content-Length", std::to_string(response.body.size()));
      return response;
    }
    Proxy* upstream_;
  } tamperer(&edge_proxy);
  net.attach("mitm.ad1", &tamperer);

  Client victim(&net, "victim.ad1", &dns, Client::Options{true});
  victim.configure(PacFile::idicn_default("mitm.ad1"));
  const auto attacked = victim.get(url);
  std::printf("[sec]   via tampering proxy  -> %d (%s)\n", attacked.response.status,
              attacked.verify_result
                  ? to_string(*attacked.verify_result)
                  : "no-verdict");

  std::printf("\nTotal: %llu messages, %llu bytes on the simulated wire.\n",
              static_cast<unsigned long long>(net.messages_sent()),
              static_cast<unsigned long long>(net.bytes_sent()));
  return attacked.response.status == 502 && second.verified ? 0 : 1;
}
