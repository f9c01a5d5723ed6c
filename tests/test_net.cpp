// Network substrate tests: URI parsing, the HTTP/1.1 message codec, the
// simulated internetwork, and DNS.
#include <gtest/gtest.h>

#include "net/dns.hpp"
#include "net/http_internal.hpp"
#include "net/http_message.hpp"
#include "net/sim_net.hpp"
#include "net/uri.hpp"

namespace {

using namespace idicn::net;

// --- URI -------------------------------------------------------------------

TEST(Uri, AbsoluteForm) {
  const auto uri = parse_uri("http://example.com:8080/path/to?x=1&y=2");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->scheme, "http");
  EXPECT_EQ(uri->host, "example.com");
  EXPECT_EQ(uri->port, 8080);
  EXPECT_EQ(uri->path, "/path/to");
  EXPECT_EQ(uri->query, "x=1&y=2");
  EXPECT_EQ(uri->target(), "/path/to?x=1&y=2");
  EXPECT_EQ(uri->to_string(), "http://example.com:8080/path/to?x=1&y=2");
}

TEST(Uri, DefaultsAndCaseFolding) {
  const auto uri = parse_uri("HTTP://Example.COM");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->scheme, "http");
  EXPECT_EQ(uri->host, "example.com");
  EXPECT_EQ(uri->port, 0);
  EXPECT_EQ(uri->effective_port(), 80);
  EXPECT_EQ(uri->path, "/");
}

TEST(Uri, OriginForm) {
  const auto uri = parse_uri("/a/b?q=1");
  ASSERT_TRUE(uri.has_value());
  EXPECT_TRUE(uri->host.empty());
  EXPECT_EQ(uri->path, "/a/b");
  EXPECT_EQ(uri->query, "q=1");
}

TEST(Uri, QueryWithoutPath) {
  const auto uri = parse_uri("http://h?x=1");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->path, "/");
  EXPECT_EQ(uri->query, "x=1");
}

TEST(Uri, FragmentIsStripped) {
  const auto uri = parse_uri("http://h/p#frag");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->path, "/p");
}

class BadUris : public ::testing::TestWithParam<const char*> {};

TEST_P(BadUris, Rejected) {
  EXPECT_FALSE(parse_uri(GetParam()).has_value());
  EXPECT_FALSE(absolute_form_host(GetParam()).has_value());
}

INSTANTIATE_TEST_SUITE_P(Cases, BadUris,
                         ::testing::Values("", "http://", "http://:80/",
                                           "http://h:0/", "http://h:99999/",
                                           "http://h:abc/", "://host/",
                                           "http://ho st/", "no-scheme-no-slash",
                                           "#frag", "http://h\x7f/", "http://h/\tx"));

TEST(Uri, AbsoluteFormHostIsBorrowedAsWritten) {
  EXPECT_EQ(absolute_form_host("HTTP://Example.COM:8080/p?q#f"), "Example.COM");
  EXPECT_EQ(absolute_form_host("http://h?x=1"), "h");
  EXPECT_FALSE(absolute_form_host("/a/b?q=1").has_value());  // origin form
}

TEST(Uri, CaseFoldingIsAsciiOnly) {
  // Bytes outside ASCII are neither whitespace, controls nor letters to
  // fold, whatever the process locale.
  const auto uri = parse_uri("http://CAF\xc3\x89.example/");
  ASSERT_TRUE(uri.has_value());
  EXPECT_EQ(uri->host, "caf\xc3\x89.example");
  EXPECT_EQ(ascii_lower('Q'), 'q');
  EXPECT_EQ(ascii_lower('\xc9'), '\xc9');
}

// --- Connection options --------------------------------------------------

TEST(TokenList, MatchesAnyCaseAnywhereInTheList) {
  using detail::token_list_contains;
  EXPECT_TRUE(token_list_contains("close", "close"));
  EXPECT_TRUE(token_list_contains("CLOSE", "close"));
  EXPECT_TRUE(token_list_contains("keep-alive, close", "close"));
  EXPECT_TRUE(token_list_contains("Upgrade,Close ,keep-alive", "close"));
  EXPECT_FALSE(token_list_contains("keep-alive", "close"));
  EXPECT_FALSE(token_list_contains("closed, x-close", "close"));
  EXPECT_FALSE(token_list_contains("", "close"));
}

// --- HeaderMap -----------------------------------------------------------

TEST(HeaderMap, CaseInsensitiveLookup) {
  HeaderMap headers;
  headers.add("Content-Type", "text/plain");
  EXPECT_EQ(headers.get("content-type"), "text/plain");
  EXPECT_EQ(headers.get("CONTENT-TYPE"), "text/plain");
  EXPECT_TRUE(headers.contains("cOnTeNt-TyPe"));
  EXPECT_FALSE(headers.get("Missing").has_value());
}

TEST(HeaderMap, SetReplacesAllValues) {
  HeaderMap headers;
  headers.add("Link", "a");
  headers.add("Link", "b");
  EXPECT_EQ(headers.get_all("Link").size(), 2u);
  headers.set("link", "c");
  EXPECT_EQ(headers.get_all("Link"), std::vector<std::string>{"c"});
}

TEST(HeaderMap, RemoveErasesEveryInstance) {
  HeaderMap headers;
  headers.add("X", "1");
  headers.add("x", "2");
  headers.remove("X");
  EXPECT_FALSE(headers.contains("x"));
}

// --- HTTP request ---------------------------------------------------------

TEST(HttpRequest, SerializeParseRoundtrip) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/register";
  request.headers.set("Host", "nrs.idicn.org");
  request.body = "name=x&location=y";
  request.headers.set("Content-Length", std::to_string(request.body.size()));

  const auto parsed = parse_request(request.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "POST");
  EXPECT_EQ(parsed->target, "/register");
  EXPECT_EQ(parsed->headers.get("host"), "nrs.idicn.org");
  EXPECT_EQ(parsed->body, request.body);
}

TEST(HttpRequest, SerializeAddsContentLength) {
  HttpRequest request;
  request.body = "12345";
  const std::string wire = request.serialize();
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_TRUE(parse_request(wire).has_value());
}

TEST(HttpRequest, HeaderValueOwsIsTrimmed) {
  const auto parsed =
      parse_request("GET / HTTP/1.1\r\nHost:   spaced.example  \r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->headers.get("Host"), "spaced.example");
}

class BadRequests : public ::testing::TestWithParam<const char*> {};

TEST_P(BadRequests, Rejected) {
  ParseError error;
  EXPECT_FALSE(parse_request(GetParam(), &error).has_value());
  EXPECT_FALSE(error.message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadRequests,
    ::testing::Values("",                                          // empty
                      "GET /\r\n\r\n",                             // no version
                      "GET / HTTP/2.0\r\n\r\n",                    // bad version
                      "GET  / HTTP/1.1\r\n\r\n",                   // double space
                      "G T / HTTP/1.1 extra\r\n\r\n",              // 4 words
                      "GET / HTTP/1.1\r\nNoColon\r\n\r\n",         // bad header
                      "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",     // space in name
                      "GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc",   // short body
                      "GET / HTTP/1.1\r\nContent-Length: 2\r\n\r\nabc",   // long body
                      "GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n",      // bad length
                      "GET / HTTP/1.1\nHost: h\n\n"));             // bare LF

// --- HTTP response -----------------------------------------------------------

TEST(HttpResponse, SerializeParseRoundtrip) {
  HttpResponse response = make_response(404, "nope", "text/plain");
  const auto parsed = parse_response(response.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->reason, "Not Found");
  EXPECT_EQ(parsed->body, "nope");
  EXPECT_FALSE(parsed->ok());
}

TEST(HttpResponse, OkRange) {
  EXPECT_TRUE(make_response(200, "").ok());
  EXPECT_TRUE(make_response(206, "").ok());
  EXPECT_FALSE(make_response(302, "").ok());
  EXPECT_FALSE(make_response(502, "").ok());
}

TEST(HttpResponse, ParseRejectsBadStatus) {
  EXPECT_FALSE(parse_response("HTTP/1.1 20 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_response("HTTP/1.1 2000 OK\r\n\r\n").has_value());
  EXPECT_FALSE(parse_response("HTTP/3.0 200 OK\r\n\r\n").has_value());
}

TEST(HttpResponse, EmptyReasonAccepted) {
  const auto parsed = parse_response("HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
}

TEST(HttpResponse, BinaryBodySurvives) {
  std::string body;
  for (int i = 0; i < 256; ++i) body.push_back(static_cast<char>(i));
  const HttpResponse response = make_response(200, body, "application/octet-stream");
  const auto parsed = parse_response(response.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, body);
}

// --- SimNet --------------------------------------------------------------------

class EchoHost : public SimHost {
public:
  HttpResponse handle_http(const HttpRequest& request, const Address& from) override {
    ++requests;
    HttpResponse response = make_response(200, "echo:" + request.target);
    response.headers.set("X-From", from);
    return response;
  }
  int requests = 0;
};

TEST(SimNet, DeliversAndCounts) {
  SimNet net;
  EchoHost host;
  net.attach("server", &host);
  HttpRequest request;
  request.target = "/hello";
  const HttpResponse response = net.send("client", "server", request);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/hello");
  EXPECT_EQ(response.headers.get("X-From"), "client");
  EXPECT_EQ(host.requests, 1);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.messages_between("client", "server"), 1u);
  EXPECT_GT(net.bytes_sent(), 0u);
}

TEST(SimNet, UnknownDestinationTimesOut) {
  SimNet net;
  EXPECT_EQ(net.send("a", "nowhere", HttpRequest{}).status, 504);
}

TEST(SimNet, ReachabilityToggle) {
  SimNet net;
  EchoHost host;
  net.attach("server", &host);
  net.set_reachable("server", false);
  EXPECT_EQ(net.send("a", "server", HttpRequest{}).status, 504);
  net.set_reachable("server", true);
  EXPECT_EQ(net.send("a", "server", HttpRequest{}).status, 200);
}

TEST(SimNet, DuplicateAttachThrows) {
  SimNet net;
  EchoHost host;
  net.attach("x", &host);
  EXPECT_THROW(net.attach("x", &host), std::invalid_argument);
  net.detach("x");
  EXPECT_NO_THROW(net.attach("x", &host));
}

TEST(SimNet, ClockAdvancesWithLatency) {
  SimNet net;
  EchoHost host;
  net.attach("server", &host);
  net.set_default_latency_ms(5);
  EXPECT_EQ(net.now_ms(), 0u);
  (void)net.send("client", "server", HttpRequest{});
  EXPECT_EQ(net.now_ms(), 10u);  // request + response trip
  net.set_latency_ms("server", 50);
  (void)net.send("client", "server", HttpRequest{});
  EXPECT_EQ(net.now_ms(), 10u + 50u + 5u);
}

TEST(SimNet, MulticastReachesGroupExceptSender) {
  SimNet net;
  EchoHost a, b, c;
  net.attach("a", &a);
  net.attach("b", &b);
  net.attach("c", &c);
  net.join_group("local", "a");
  net.join_group("local", "b");
  net.join_group("local", "c");
  const auto responses = net.multicast("a", "local", HttpRequest{});
  EXPECT_EQ(responses.size(), 2u);
  EXPECT_EQ(a.requests, 0);
  EXPECT_EQ(b.requests, 1);
  EXPECT_EQ(c.requests, 1);
  net.leave_group("local", "b");
  EXPECT_EQ(net.group_members("local").size(), 2u);
}

TEST(SimNet, DetachLeavesGroups) {
  SimNet net;
  EchoHost a;
  net.attach("a", &a);
  net.join_group("g", "a");
  net.detach("a");
  EXPECT_TRUE(net.group_members("g").empty());
}

// --- DNS ---------------------------------------------------------------------

TEST(Dns, UpdateResolveRemove) {
  DnsService dns;
  dns.update("www.example.com", "10.0.0.1");
  EXPECT_EQ(dns.resolve("www.example.com"), "10.0.0.1");
  dns.update("www.example.com", "10.0.0.2");
  EXPECT_EQ(dns.resolve("www.example.com"), "10.0.0.2");
  dns.remove("www.example.com");
  EXPECT_FALSE(dns.resolve("www.example.com").has_value());
}

TEST(Dns, SerialIncreasesOnUpdate) {
  DnsService dns;
  dns.update("a", "1");
  const auto first = dns.record("a");
  dns.update("a", "2");
  const auto second = dns.record("a");
  ASSERT_TRUE(first && second);
  EXPECT_GT(second->serial, first->serial);
}

TEST(Dns, WildcardResolution) {
  DnsService dns;
  dns.update("*.idicn.org", "resolver");
  EXPECT_EQ(dns.resolve_with_wildcards("label.pub.idicn.org"), "resolver");
  EXPECT_EQ(dns.resolve_with_wildcards("x.idicn.org"), "resolver");
  EXPECT_FALSE(dns.resolve_with_wildcards("x.other.org").has_value());
  // Exact beats wildcard.
  dns.update("special.idicn.org", "direct");
  EXPECT_EQ(dns.resolve_with_wildcards("special.idicn.org"), "direct");
}

TEST(Dns, ParentDomain) {
  EXPECT_EQ(parent_domain("a.b.c"), "b.c");
  EXPECT_EQ(parent_domain("b.c"), "c");
  EXPECT_EQ(parent_domain("c"), "");
}

}  // namespace
