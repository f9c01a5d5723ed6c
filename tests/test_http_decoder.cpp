// Incremental HTTP decoder (net::HttpDecoder) and serializer-hardening
// tests: byte-at-a-time feeds, keep-alive, pipelining, limits, error
// mapping, and the header-injection (response-splitting) guard.
#include <gtest/gtest.h>

#include <string>

#include "net/http_decoder.hpp"
#include "net/http_message.hpp"

namespace {

using namespace idicn::net;

std::string simple_request_wire(const std::string& target = "/a",
                                const std::string& body = "") {
  HttpRequest request;
  request.method = body.empty() ? "GET" : "POST";
  request.target = target;
  if (!body.empty()) {
    request.headers.set("Content-Length", std::to_string(body.size()));
    request.body = body;
  }
  return request.serialize();
}

TEST(HttpDecoder, DecodesCompleteRequestInOneFeed) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed("GET /index.html HTTP/1.1\r\nHost: a.idicn.org\r\n\r\n");
  ASSERT_EQ(decoder.ready(), 1u);
  const auto request = decoder.next_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->target, "/index.html");
  EXPECT_EQ(request->headers.get("Host"), "a.idicn.org");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_EQ(decoder.state(), HttpDecoder::State::StartLine);
}

TEST(HttpDecoder, ByteAtATimeFeed) {
  const std::string wire =
      "POST /upload HTTP/1.1\r\nContent-Length: 5\r\nX-K: v\r\n\r\nhello";
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(decoder.ready(), 0u) << "message completed early at byte " << i;
    decoder.feed(std::string_view(&wire[i], 1));
  }
  ASSERT_EQ(decoder.ready(), 1u);
  const auto request = decoder.next_request();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->body, "hello");
  EXPECT_EQ(request->headers.get("X-K"), "v");
}

TEST(HttpDecoder, StateProgression) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  EXPECT_EQ(decoder.state(), HttpDecoder::State::StartLine);
  decoder.feed("POST / HTTP/1.1\r\n");
  EXPECT_EQ(decoder.state(), HttpDecoder::State::Headers);
  decoder.feed("Content-Length: 3\r\n\r\n");
  EXPECT_EQ(decoder.state(), HttpDecoder::State::Body);
  decoder.feed("abc");
  EXPECT_EQ(decoder.state(), HttpDecoder::State::StartLine);
  EXPECT_EQ(decoder.ready(), 1u);
}

TEST(HttpDecoder, PipelinedRequestsInOneFeed) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed(simple_request_wire("/1") + simple_request_wire("/2", "body!") +
               simple_request_wire("/3"));
  ASSERT_EQ(decoder.ready(), 3u);
  EXPECT_EQ(decoder.next_request()->target, "/1");
  const auto second = decoder.next_request();
  EXPECT_EQ(second->target, "/2");
  EXPECT_EQ(second->body, "body!");
  EXPECT_EQ(decoder.next_request()->target, "/3");
  EXPECT_FALSE(decoder.next_request().has_value());
}

TEST(HttpDecoder, KeepAliveSequentialMessages) {
  // Many messages over time on one decoder, mimicking a keep-alive socket.
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  for (int i = 0; i < 200; ++i) {
    const std::string wire = simple_request_wire("/obj-" + std::to_string(i));
    // Split each message at an awkward boundary.
    decoder.feed(std::string_view(wire).substr(0, 7));
    decoder.feed(std::string_view(wire).substr(7));
    const auto request = decoder.next_request();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->target, "/obj-" + std::to_string(i));
  }
  // Buffer compaction must keep the working set bounded.
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(HttpDecoder, SplitAcrossTheCrlfCrlfBoundary) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed("GET / HTTP/1.1\r\nHost: h\r\n");
  decoder.feed("\r");
  EXPECT_EQ(decoder.ready(), 0u);
  decoder.feed("\n");
  EXPECT_EQ(decoder.ready(), 1u);
}

TEST(HttpDecoder, ResponseMode) {
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  const HttpResponse original = make_response(404, "missing thing");
  const std::string wire = original.serialize();
  decoder.feed(std::string_view(wire).substr(0, wire.size() / 2));
  decoder.feed(std::string_view(wire).substr(wire.size() / 2));
  const auto response = decoder.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 404);
  EXPECT_EQ(response->reason, "Not Found");
  EXPECT_EQ(response->body, "missing thing");
  // The request accessor on a response decoder always declines.
  EXPECT_FALSE(decoder.next_request().has_value());
}

TEST(HttpDecoder, AgreesWithCompleteParser) {
  // The decoder shares its grammar with parse_request: a message accepted
  // by one must be accepted identically by the other.
  const std::string wire =
      "PUT /x%20y HTTP/1.1\r\nHost: h\r\nA: 1\r\na: 2\r\nContent-Length: 2\r\n\r\nhi";
  const auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.has_value());
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed(wire);
  const auto decoded = decoder.next_request();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->method, parsed->method);
  EXPECT_EQ(decoded->target, parsed->target);
  EXPECT_EQ(decoded->version, parsed->version);
  EXPECT_EQ(decoded->body, parsed->body);
  EXPECT_EQ(decoded->headers.get_all("A"), parsed->headers.get_all("A"));
}

TEST(HttpDecoder, MalformedStartLineIsError) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed("NOT A REQUEST LINE\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.state(), HttpDecoder::State::Error);
  EXPECT_EQ(decoder.suggested_status(), 400);
  EXPECT_FALSE(decoder.error().empty());
  // Further feeds are no-ops; the error sticks.
  decoder.feed(simple_request_wire());
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.ready(), 0u);
}

TEST(HttpDecoder, BadContentLengthIsError) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 400);
}

TEST(HttpDecoder, HeaderLimitMapsTo431) {
  HttpDecoder::Limits limits;
  limits.max_header_bytes = 128;
  HttpDecoder decoder(HttpDecoder::Mode::Request, limits);
  decoder.feed("GET / HTTP/1.1\r\nX-Big: " + std::string(200, 'a') + "\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 431);
}

TEST(HttpDecoder, OversizedHeadersDetectedBeforeTerminator) {
  // The limit must trip even when the CRLFCRLF never arrives (slowloris).
  HttpDecoder::Limits limits;
  limits.max_header_bytes = 128;
  HttpDecoder decoder(HttpDecoder::Mode::Request, limits);
  decoder.feed("GET / HTTP/1.1\r\n");
  for (int i = 0; i < 64 && !decoder.failed(); ++i) {
    decoder.feed("X-Pad: aaaaaaaaaaaaaaaa\r\n");
  }
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 431);
}

TEST(HttpDecoder, RequestBodyLimitMapsTo413) {
  // RFC 9110: an over-limit body is 413 Content Too Large, not 400.
  HttpDecoder::Limits limits;
  limits.max_body_bytes = 16;
  HttpDecoder decoder(HttpDecoder::Mode::Request, limits);
  decoder.feed("POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 413);
  EXPECT_EQ(default_reason(413), "Content Too Large");
}

TEST(HttpDecoder, ResponseBodiesAreNotCapped) {
  // The body ceiling is a request-ingress policy. A proxied *response*
  // larger than max_body_bytes streams through in bounded memory instead
  // of being rejected (the pre-streaming decoder 400'd it).
  HttpDecoder::Limits limits;
  limits.max_body_bytes = 16;
  limits.body_slab_bytes = 8;
  HttpDecoder decoder(HttpDecoder::Mode::Response, limits);
  const std::string body(64, 'x');
  decoder.feed("HTTP/1.1 200 OK\r\nContent-Length: 64\r\n\r\n" + body);
  EXPECT_FALSE(decoder.failed());
  ASSERT_EQ(decoder.ready(), 1u);
  const auto response = decoder.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->full_body(), body);
}

TEST(HttpDecoder, ResetClearsEverything) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed("garbage\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  decoder.reset();
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  decoder.feed(simple_request_wire());
  EXPECT_EQ(decoder.ready(), 1u);
}

// ---------------------------------------------------------------------------
// Chunked transfer coding (RFC 7230 §4.1)

TEST(HttpDecoderChunked, DecodesChunkedResponse) {
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  decoder.feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n");
  EXPECT_FALSE(decoder.failed()) << decoder.error();
  ASSERT_EQ(decoder.ready(), 1u);
  const auto response = decoder.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->full_body(), "hello world");
  // The framing was consumed: the decoded message has an identity body and
  // re-serializes under Content-Length (round-trip closure).
  EXPECT_FALSE(response->headers.contains("Transfer-Encoding"));
  const auto reparsed = parse_response(response->serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->body, "hello world");
}

TEST(HttpDecoderChunked, DecodesChunkedRequest) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed(
      "POST /up HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n");
  EXPECT_FALSE(decoder.failed()) << decoder.error();
  ASSERT_EQ(decoder.ready(), 1u);
  EXPECT_EQ(decoder.next_request()->body, "abc");
}

TEST(HttpDecoderChunked, ByteAtATimeWithExtensionsAndTrailers) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4;ext=\"quoted\"\r\nwxyz\r\nA\r\n0123456789\r\n0\r\n"
      "X-Trailer: tv\r\n\r\n";
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_EQ(decoder.ready(), 0u) << "completed early at byte " << i;
    decoder.feed(std::string_view(&wire[i], 1));
    ASSERT_FALSE(decoder.failed()) << "failed at byte " << i << ": "
                                   << decoder.error();
  }
  ASSERT_EQ(decoder.ready(), 1u);
  const auto response = decoder.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->full_body(), "wxyz0123456789");
  // Trailer fields fold into the message headers.
  EXPECT_EQ(response->headers.get("X-Trailer"), "tv");
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_FALSE(decoder.mid_message());
}

TEST(HttpDecoderChunked, SplitChunkSizeLine) {
  // The hex size line itself fragments across feeds.
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  decoder.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1");
  EXPECT_EQ(decoder.ready(), 0u);
  decoder.feed("0\r\n");  // chunk size is 0x10 = 16
  decoder.feed("0123456789abcdef\r\n0\r\n\r\n");
  EXPECT_FALSE(decoder.failed()) << decoder.error();
  ASSERT_EQ(decoder.ready(), 1u);
  EXPECT_EQ(decoder.next_response()->full_body(), "0123456789abcdef");
}

TEST(HttpDecoderChunked, BadChunkSizeIs400) {
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  decoder.feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 400);
}

TEST(HttpDecoderChunked, MissingDataCrlfIs400) {
  HttpDecoder decoder(HttpDecoder::Mode::Response);
  decoder.feed(
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabcXX");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 400);
}

TEST(HttpDecoderChunked, ContentLengthPlusChunkedIsSmugglingError) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed(
      "POST / HTTP/1.1\r\nContent-Length: 3\r\n"
      "Transfer-Encoding: chunked\r\n\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 400);
}

TEST(HttpDecoderChunked, ChunkedRequestBodyOverLimitIs413) {
  HttpDecoder::Limits limits;
  limits.max_body_bytes = 8;
  HttpDecoder decoder(HttpDecoder::Mode::Request, limits);
  decoder.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n");
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.suggested_status(), 413);
}

// ---------------------------------------------------------------------------
// Streaming bodies: spill to shared chunks, hooks, mid_message

TEST(HttpDecoderStreaming, LargeResponseSpillsToChunks) {
  HttpDecoder::Limits limits;
  limits.body_slab_bytes = 16;
  HttpDecoder decoder(HttpDecoder::Mode::Response, limits);
  const std::string body(100, 'b');
  decoder.feed("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + body);
  ASSERT_EQ(decoder.ready(), 1u);
  const auto response = decoder.next_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_TRUE(response->body.empty());  // spilled, not flat
  EXPECT_EQ(response->stream_body.size(), 100u);
  EXPECT_GE(response->stream_body.chunks().size(), 2u);
  EXPECT_EQ(response->full_body(), body);
}

TEST(HttpDecoderStreaming, WorkingBufferStaysBounded) {
  // A multi-megabyte body must not accumulate in the decode buffer: body
  // bytes are consumed eagerly, keeping the buffer O(slab).
  HttpDecoder::Limits limits;
  limits.body_slab_bytes = 1024;
  HttpDecoder decoder(HttpDecoder::Mode::Response, limits);
  decoder.feed("HTTP/1.1 200 OK\r\nContent-Length: 1048576\r\n\r\n");
  const std::string piece(4096, 'p');
  for (int i = 0; i < 256; ++i) {
    decoder.feed(piece);
    EXPECT_LE(decoder.buffered_bytes(), 2 * piece.size());
  }
  ASSERT_EQ(decoder.ready(), 1u);
  EXPECT_EQ(decoder.next_response()->body_size(), 1048576u);
}

TEST(HttpDecoderStreaming, HooksDeliverHeadThenChunks) {
  HttpDecoder::Limits limits;
  limits.body_slab_bytes = 8;
  HttpDecoder decoder(HttpDecoder::Mode::Response, limits);
  int heads = 0;
  std::string streamed;
  std::vector<std::size_t> order;  // 0 = head, 1 = chunk
  HttpDecoder::StreamHooks hooks;
  hooks.on_head = [&](const HttpResponse& head) {
    ++heads;
    EXPECT_EQ(head.status, 200);
    EXPECT_EQ(head.headers.get("Content-Length"), "20");
    order.push_back(0);
  };
  hooks.on_chunk = [&](idicn::core::Chunk chunk) {
    streamed.append(chunk.view());
    order.push_back(1);
  };
  decoder.set_stream_hooks(std::move(hooks));

  const std::string body(20, 's');
  decoder.feed("HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n");
  decoder.feed(body.substr(0, 7));
  // Prompt delivery: staged bytes flush to the hook at end of feed even
  // below the slab size.
  EXPECT_EQ(streamed.size(), 7u);
  decoder.feed(body.substr(7));
  EXPECT_EQ(streamed, body);
  EXPECT_EQ(heads, 1);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), 0u);  // head strictly before any chunk
  // The completed message pops with an empty body (bytes went to hooks).
  ASSERT_EQ(decoder.ready(), 1u);
  EXPECT_EQ(decoder.next_response()->body_size(), 0u);
}

TEST(HttpDecoderStreaming, MidMessageTracksBodyProgress) {
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  EXPECT_FALSE(decoder.mid_message());
  decoder.feed("POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\n");
  // Headers consumed, body outstanding: buffered_bytes() is 0 (eager
  // consumption) but the message is incomplete — mid_message() must say so.
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_TRUE(decoder.mid_message());
  decoder.feed("ab");
  EXPECT_TRUE(decoder.mid_message());
  decoder.feed("cd");
  EXPECT_FALSE(decoder.mid_message());
  EXPECT_EQ(decoder.ready(), 1u);
}

// ---------------------------------------------------------------------------
// Header-injection hardening (response splitting).

TEST(HeaderInjection, SanitizeStripsCrLfNul) {
  EXPECT_EQ(sanitize_header_value("clean value"), "clean value");
  EXPECT_EQ(sanitize_header_value("evil\r\nX-Injected: 1"), "evilX-Injected: 1");
  EXPECT_EQ(sanitize_header_value(std::string("a\0b", 3)), "ab");
  EXPECT_EQ(sanitize_header_value("\r\n\r\n"), "");

  // Values the size of a Lamport proof: a clean one comes back unchanged,
  // and a CR, LF or NUL is stripped at the first byte, the middle and the
  // last byte.
  std::string clean(64 * 1024, '\0');
  for (std::size_t i = 0; i < clean.size(); ++i) clean[i] = "0123456789abcdef:,"[i % 18];
  EXPECT_EQ(sanitize_header_value(clean), clean);
  for (const char bad : {'\r', '\n', '\0'}) {
    for (const std::size_t at : {std::size_t{0}, clean.size() / 2, clean.size() - 1}) {
      std::string dirty = clean;
      dirty[at] = bad;
      std::string expected = clean;
      expected.erase(at, 1);
      EXPECT_EQ(sanitize_header_value(dirty), expected)
          << "byte " << static_cast<int>(bad) << " at " << at;
    }
  }
}

TEST(HeaderInjection, HeaderMapSanitizesOnInsertion) {
  HeaderMap headers;
  headers.add("X-A", "v1\r\nX-Fake: smuggled");
  headers.set("X-B", "v2\nSet-Cookie: pwned");
  EXPECT_EQ(headers.get("X-A"), "v1X-Fake: smuggled");
  EXPECT_EQ(headers.get("X-B"), "v2Set-Cookie: pwned");
  EXPECT_FALSE(headers.contains("X-Fake"));
  EXPECT_FALSE(headers.contains("Set-Cookie"));
}

TEST(HeaderInjection, SerializedResponseHasNoSplitPoint) {
  HttpResponse response = make_response(200, "body");
  response.headers.add("X-Echo", "attacker\r\nContent-Length: 0\r\n\r\nHTTP/1.1 200 OK");
  const std::string wire = response.serialize();
  // Exactly one header terminator, and it precedes the body.
  EXPECT_EQ(wire.find("\r\n\r\n"), wire.rfind("\r\n\r\n"));
  const auto reparsed = parse_response(wire);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->body, "body");
  EXPECT_EQ(reparsed->headers.get_all("Content-Length").size(), 1u);
}

TEST(HeaderInjection, StartLineComponentsAreSanitizedAtSerialize) {
  HttpRequest request;
  request.method = "GET";
  request.target = "/x\r\nHost: evil\r\n";  // struct member set directly
  const std::string wire = request.serialize();
  // The CRLFs are gone: no "Host: evil" header *line* exists on the wire,
  // and the request line is the only line before the terminator.
  EXPECT_EQ(wire.find("\r\nHost:"), std::string::npos);
  EXPECT_NE(wire.find("GET /xHost: evil HTTP/1.1\r\n"), std::string::npos);

  HttpResponse response;
  response.status = 200;
  response.reason = "OK\r\nX-Inj: 1";
  const auto round = parse_response(response.serialize());
  ASSERT_TRUE(round.has_value());
  EXPECT_FALSE(round->headers.contains("X-Inj"));
  EXPECT_EQ(round->reason, "OKX-Inj: 1");
}

TEST(HeaderInjection, NonTokenHeaderNamesAreDroppedAtSerialize) {
  HttpResponse response = make_response(200, "b");
  const std::size_t baseline = parse_response(response.serialize())->headers.size();
  response.headers.add("Bad Name", "v");          // space is not a token char
  response.headers.add("Worse\r\nName", "v");     // CRLF in the name itself
  const auto reparsed = parse_response(response.serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->headers.size(), baseline);
}

TEST(HeaderInjection, DecoderNeverYieldsEmbeddedCrLfValues) {
  // End to end: a value sanitized at insertion survives serialize+decode
  // as one header, one message.
  HttpRequest request;
  request.headers.set("X-User", "alice\r\nX-Admin: true");
  request.headers.set("Content-Length", "0");
  HttpDecoder decoder(HttpDecoder::Mode::Request);
  decoder.feed(request.serialize());
  ASSERT_EQ(decoder.ready(), 1u);
  const auto decoded = decoder.next_request();
  EXPECT_EQ(decoded->headers.get("X-User"), "aliceX-Admin: true");
  EXPECT_FALSE(decoded->headers.contains("X-Admin"));
}

}  // namespace
