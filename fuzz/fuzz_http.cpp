// Fuzz harness for the HTTP grammar: the complete-message parsers
// (parse_request/parse_response) and the incremental HttpDecoder, plus the
// cross-checks that keep the two parse paths honest:
//
//   * no crash/UB on arbitrary bytes (the point of fuzzing);
//   * decoder(whole buffer) == decoder(byte-at-a-time) on message count;
//   * when parse_request accepts a buffer, the decoder must produce the
//     same first message from the same bytes;
//   * any message that decodes re-serializes into something the complete
//     parser accepts (serialize ∘ decode is closed over the grammar);
//   * no header value that either parser yields holds CR, LF or NUL (the
//     response-splitting guard, which runs a fast scan before rewriting).
//
// Build with -DIDICN_BUILD_FUZZERS=ON. Under clang the harness links
// libFuzzer (-fsanitize=fuzzer) and explores autonomously; under gcc it
// compiles into a standalone replayer that runs every file passed on the
// command line (the seed corpus in fuzz/corpus/) through the same
// LLVMFuzzerTestOneInput — so CI exercises the identical code path with
// either toolchain.
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/http_decoder.hpp"
#include "net/http_message.hpp"

using idicn::net::HttpDecoder;

namespace {

/// Values are sanitized on insertion, so none may hold a byte that could
/// split a message on the wire.
void check_header_values(const idicn::net::HeaderMap& headers) {
  for (const auto& field : headers.fields()) {
    const std::string_view value = field.second;
    assert(value.find_first_of(std::string_view("\r\n\0", 3)) == std::string_view::npos);
    (void)value;  // assert-only (NDEBUG builds)
  }
}

/// Feed the same bytes in one call and one byte at a time; the number of
/// decoded messages and the error state must agree.
void check_feed_invariance(std::string_view input, HttpDecoder::Mode mode) {
  HttpDecoder whole(mode);
  whole.feed(input);

  HttpDecoder dribble(mode);
  for (const char byte : input) dribble.feed(std::string_view(&byte, 1));

  assert(whole.ready() == dribble.ready());
  assert(whole.failed() == dribble.failed());

  // Everything decoded must survive a serialize → complete-parse round trip.
  if (mode == HttpDecoder::Mode::Request) {
    while (auto request = whole.next_request()) {
      check_header_values(request->headers);
      const auto reparsed = idicn::net::parse_request(request->serialize());
      assert(reparsed.has_value());
      assert(reparsed->method == request->method);
      assert(reparsed->body == request->body);
    }
  } else {
    while (auto response = whole.next_response()) {
      check_header_values(response->headers);
      const auto reparsed = idicn::net::parse_response(response->serialize());
      assert(reparsed.has_value());
      assert(reparsed->status == response->status);
      // full_body(): a decoded body may live in stream_body chunks (spill
      // or chunked transfer coding); the complete parser flattens.
      assert(reparsed->full_body() == response->full_body());
    }
  }
}

/// Range grammar (RFC 9110 §14) on hostile bytes: parse_byte_range must
/// classify without crashing and, on Ok, hand back a range that actually
/// fits the body; apply_byte_range must rewrite a 200 into exactly 206
/// (sliced body, Content-Range present) or 416, or leave it untouched.
void check_range_handling(std::string_view range_value) {
  static constexpr std::uint64_t kBodySizes[] = {0, 1, 7, 1024};
  for (const std::uint64_t body_size : kBodySizes) {
    idicn::net::ByteRange range;
    const auto verdict =
        idicn::net::parse_byte_range(range_value, body_size, &range);
    if (verdict == idicn::net::RangeParse::Ok) {
      assert(body_size > 0);
      assert(range.first <= range.last);
      assert(range.last < body_size);
      assert(range.length() >= 1 && range.length() <= body_size);
    }
  }

  auto response =
      idicn::net::make_response(200, std::string(64, 'r'), "text/plain");
  const bool rewritten = idicn::net::apply_byte_range(range_value, response);
  if (rewritten) {
    assert(response.status == 206 || response.status == 416);
    if (response.status == 206) {
      assert(response.headers.get("Content-Range").has_value());
      idicn::net::ByteRange range;
      const auto verdict = idicn::net::parse_byte_range(range_value, 64, &range);
      (void)verdict;  // assert-only (NDEBUG builds)
      assert(verdict == idicn::net::RangeParse::Ok);
      assert(response.full_body().size() == range.length());
    }
  } else {
    assert(response.status == 200);
    assert(response.full_body().size() == 64);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // Complete-message parsers on raw bytes.
  const auto request = idicn::net::parse_request(input);
  if (request) check_header_values(request->headers);
  if (const auto response = idicn::net::parse_response(input)) {
    check_header_values(response->headers);
  }

  // Incremental decoder, both modes, with fragmentation invariance.
  check_feed_invariance(input, HttpDecoder::Mode::Request);
  check_feed_invariance(input, HttpDecoder::Mode::Response);

  // Grammar agreement: a buffer the complete parser accepts must decode to
  // the same first message (the complete parser requires exactly one
  // message, so the decoder sees it too).
  if (request) {
    HttpDecoder decoder(HttpDecoder::Mode::Request);
    decoder.feed(input);
    const auto decoded = decoder.next_request();
    assert(decoded.has_value());
    assert(decoded->method == request->method);
    assert(decoded->target == request->target);
    assert(decoded->body == request->body);
  }

  // Ranged reads: the raw input as a Range header value (mutations land
  // directly on the range grammar), and — when the bytes decode to a
  // request carrying one — the header a real proxy would pass through.
  check_range_handling(input);
  if (request) {
    if (const auto range_header = request->headers.get_view("Range")) {
      check_range_handling(*range_header);
    }
  }

  // Tight limits on hostile input must fail cleanly, never crash.
  HttpDecoder::Limits limits;
  limits.max_header_bytes = 64;
  limits.max_body_bytes = 64;
  HttpDecoder tight(HttpDecoder::Mode::Request, limits);
  tight.feed(input);
  if (tight.failed()) {
    const int status = tight.suggested_status();
    // 400 malformed, 413 request body over the ingress cap, 431 headers
    // (or trailers) too large.
    assert(status == 400 || status == 413 || status == 431);
  }
  return 0;
}

#if !defined(IDICN_FUZZ_LIBFUZZER)
// Standalone replay driver (gcc or any toolchain without libFuzzer):
// run every file named on the command line through the fuzz entry point.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

int main(int argc, char** argv) {
  int replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream file(argv[i], std::ios::binary);
    if (!file) {
      std::fprintf(stderr, "skip (unreadable): %s\n", argv[i]);
      continue;
    }
    std::ostringstream contents;
    contents << file.rdbuf();
    const std::string bytes = contents.str();
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("fuzz_http: replayed %d corpus file(s) clean\n", replayed);
  return 0;
}
#endif
