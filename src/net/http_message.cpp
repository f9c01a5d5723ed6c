#include "net/http_message.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "net/http_internal.hpp"

namespace idicn::net {
namespace {

using detail::fail;
using detail::iequals;
using detail::valid_header_name;

/// Parse the header block (after the start line) and the body; returns
/// false on malformed input.
bool parse_fields_and_body(std::string_view text, HeaderMap& headers, std::string& body,
                           ParseError* error) {
  while (true) {
    const std::size_t eol = text.find("\r\n");
    if (eol == std::string_view::npos) {
      fail(error, "header line missing CRLF");
      return false;
    }
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol + 2);
    if (line.empty()) break;  // end of headers
    if (!detail::parse_header_line(line, headers, error)) return false;
  }

  std::size_t content_length = 0;
  if (!detail::parse_content_length(headers, content_length, error)) return false;
  if (text.size() != content_length) {
    fail(error, "body length does not match Content-Length");
    return false;
  }
  body.assign(text);
  return true;
}

}  // namespace

std::string sanitize_header_value(std::string value) {
  // Nearly every value is clean, the ~9 KB proof header included: three
  // memchr scans settle that at vector speed, and only a value that holds
  // CR, LF or NUL pays the byte-wise rewrite.
  const auto holds = [&value](char c) {
    return std::memchr(value.data(), c, value.size()) != nullptr;
  };
  if (holds('\r') || holds('\n') || holds('\0')) {
    std::erase_if(value, [](char c) { return c == '\r' || c == '\n' || c == '\0'; });
  }
  return value;
}

void HeaderMap::add(std::string name, std::string value) {
  fields_.emplace_back(std::move(name), sanitize_header_value(std::move(value)));
}

void HeaderMap::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

void HeaderMap::remove(std::string_view name) {
  std::erase_if(fields_, [name](const auto& f) { return iequals(f.first, name); });
}

std::optional<std::string> HeaderMap::get(std::string_view name) const {
  for (const auto& [field_name, value] : fields_) {
    if (iequals(field_name, name)) return value;
  }
  return std::nullopt;
}

std::optional<std::string_view> HeaderMap::get_view(
    std::string_view name) const {
  for (const auto& [field_name, value] : fields_) {
    if (iequals(field_name, name)) return std::string_view(value);
  }
  return std::nullopt;
}

std::vector<std::string> HeaderMap::get_all(std::string_view name) const {
  std::vector<std::string> out;
  for (const auto& [field_name, value] : fields_) {
    if (iequals(field_name, name)) out.push_back(value);
  }
  return out;
}

bool HeaderMap::contains(std::string_view name) const {
  return get_view(name).has_value();
}

namespace {

/// Emit the header block. Field *values* were sanitized on insertion; a
/// field whose *name* is not an RFC 7230 token (which could only arise
/// programmatically — parsing rejects such names) is dropped rather than
/// serialized, so a name like "X-Evil: a\r\nInjected" can never split the
/// message on a real socket.
void serialize_fields(const HeaderMap& headers, std::string& out) {
  for (const auto& [name, value] : headers.fields()) {
    if (!valid_header_name(name)) continue;
    // Append piecewise — `name + ": " + value + "\r\n"` would build a
    // heap temporary per field on the serving path.
    out += name;
    out += ": ";
    out += value;
    out += "\r\n";
  }
}

/// Bytes the serialized header block will need, so heads are built with
/// one allocation instead of a growth walk.
std::size_t fields_wire_size(const HeaderMap& headers) {
  std::size_t total = 0;
  for (const auto& [name, value] : headers.fields()) {
    total += name.size() + value.size() + 4;  // ": " + CRLF
  }
  return total;
}

}  // namespace

std::string HttpRequest::serialize() const {
  // Start-line components get the same CR/LF/NUL guard as header values:
  // a hostile label or target must not be able to split the request.
  std::string out = sanitize_header_value(method) + " " +
                    sanitize_header_value(target) + " " +
                    sanitize_header_value(version) + "\r\n";
  serialize_fields(headers, out);
  if (!headers.contains("Content-Length") && !body.empty()) {
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string HttpResponse::full_body() const {
  if (stream_body.empty()) return body;
  std::string out;
  out.reserve(body.size() + static_cast<std::size_t>(stream_body.size()));
  out += body;
  for (const core::Chunk& chunk : stream_body.chunks()) out.append(chunk.view());
  return out;
}

core::ChunkedBody HttpResponse::take_body_chunks() {
  core::ChunkedBody out;
  if (!body.empty()) out.append(core::Chunk::from_string(std::move(body)));
  body.clear();
  for (core::Chunk& chunk : stream_body.take()) out.append(std::move(chunk));
  return out;
}

std::string HttpResponse::serialize_head() const {
  std::string out;
  // One up-front allocation: start line + fields + derived framing line.
  out.reserve(version.size() + reason.size() + 8 + fields_wire_size(headers) +
              sizeof("Content-Length: 18446744073709551615\r\n\r\n"));
  out += sanitize_header_value(version);
  out += ' ';
  char status_buf[16];
  const int status_len =
      std::snprintf(status_buf, sizeof(status_buf), "%d", status);
  out.append(status_buf, static_cast<std::size_t>(std::max(status_len, 0)));
  out += ' ';
  out += sanitize_header_value(reason);
  out += "\r\n";
  serialize_fields(headers, out);
  if (!headers.contains("Content-Length") &&
      !headers.contains("Transfer-Encoding")) {
    const auto append_length = [&out](std::uint64_t length) {
      char buf[24];
      const int len = std::snprintf(buf, sizeof(buf), "%llu",
                                    static_cast<unsigned long long>(length));
      out += "Content-Length: ";
      out.append(buf, static_cast<std::size_t>(std::max(len, 0)));
      out += "\r\n";
    };
    if (producer != nullptr) {
      if (const auto total = producer->total_size()) {
        append_length(*total);
      } else {
        out += "Transfer-Encoding: chunked\r\n";
      }
    } else {
      append_length(body_size());
    }
  }
  out += "\r\n";
  return out;
}

std::string HttpResponse::serialize() const {
  if (producer != nullptr) {
    throw std::logic_error(
        "HttpResponse::serialize: producer-backed bodies can only be "
        "written by the serving runtime");
  }
  std::string out = serialize_head();
  out += body;
  for (const core::Chunk& chunk : stream_body.chunks()) out.append(chunk.view());
  return out;
}

std::optional<HttpRequest> parse_request(std::string_view text, ParseError* error) {
  const std::size_t eol = text.find("\r\n");
  if (eol == std::string_view::npos) {
    fail(error, "request line missing CRLF");
    return std::nullopt;
  }
  HttpRequest request;
  if (!detail::parse_request_line(text.substr(0, eol), request, error)) {
    return std::nullopt;
  }
  if (!parse_fields_and_body(text.substr(eol + 2), request.headers, request.body,
                             error)) {
    return std::nullopt;
  }
  return request;
}

std::optional<HttpResponse> parse_response(std::string_view text, ParseError* error) {
  const std::size_t eol = text.find("\r\n");
  if (eol == std::string_view::npos) {
    fail(error, "status line missing CRLF");
    return std::nullopt;
  }
  HttpResponse response;
  if (!detail::parse_status_line(text.substr(0, eol), response, error)) {
    return std::nullopt;
  }
  if (!parse_fields_and_body(text.substr(eol + 2), response.headers, response.body,
                             error)) {
    return std::nullopt;
  }
  return response;
}

std::string_view default_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 206: return "Partial Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 408: return "Request Timeout";
    case 413: return "Content Too Large";
    case 416: return "Range Not Satisfiable";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

namespace {

/// Shared head assembly for the make_*_response builders. reserve(8)
/// covers the two framing headers plus the fields the proxy's serving
/// path stacks on afterwards (ETag, X-Cache, Via, metadata hints) — one
/// vector allocation per response instead of a doubling walk.
void init_response_head(HttpResponse& response, int status,
                        std::string_view content_type, std::uint64_t size) {
  response.status = status;
  response.reason = std::string(default_reason(status));
  response.headers.reserve(8);
  response.headers.set("Content-Type", std::string(content_type));
  response.headers.set("Content-Length", std::to_string(size));
}

}  // namespace

HttpResponse make_response(int status, std::string body, std::string_view content_type) {
  HttpResponse response;
  init_response_head(response, status, content_type, body.size());
  response.body = std::move(body);
  return response;
}

HttpResponse make_stream_response(int status, core::ChunkedBody body,
                                  std::string_view content_type) {
  HttpResponse response;
  init_response_head(response, status, content_type, body.size());
  response.stream_body = std::move(body);
  return response;
}

namespace {

/// Parse a non-empty decimal into `out`; false on any non-digit/overflow.
bool parse_decimal(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (std::numeric_limits<std::uint64_t>::max() - 9) / 10) return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::string_view trim_spaces(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

RangeParse parse_byte_range(std::string_view value, std::uint64_t body_size,
                            ByteRange* out) {
  value = trim_spaces(value);
  constexpr std::string_view kUnit = "bytes=";
  if (value.substr(0, kUnit.size()) != kUnit) return RangeParse::Ignore;
  value = trim_spaces(value.substr(kUnit.size()));
  // One range-spec only; multi-range responses (multipart/byteranges) are
  // deliberately unsupported — callers fall back to the full 200.
  if (value.find(',') != std::string_view::npos) return RangeParse::Ignore;
  const std::size_t dash = value.find('-');
  if (dash == std::string_view::npos) return RangeParse::Ignore;
  const std::string_view first_text = value.substr(0, dash);
  const std::string_view last_text = value.substr(dash + 1);

  if (first_text.empty()) {
    // Suffix form "-n": the final n bytes.
    std::uint64_t suffix = 0;
    if (!parse_decimal(last_text, &suffix)) return RangeParse::Ignore;
    if (suffix == 0 || body_size == 0) return RangeParse::Unsatisfiable;
    out->first = suffix >= body_size ? 0 : body_size - suffix;
    out->last = body_size - 1;
    return RangeParse::Ok;
  }

  std::uint64_t first = 0;
  if (!parse_decimal(first_text, &first)) return RangeParse::Ignore;
  if (first >= body_size) return RangeParse::Unsatisfiable;
  std::uint64_t last = body_size - 1;
  if (!last_text.empty()) {
    if (!parse_decimal(last_text, &last)) return RangeParse::Ignore;
    if (last < first) return RangeParse::Ignore;  // inverted: ignore (RFC)
    last = std::min(last, body_size - 1);
  }
  out->first = first;
  out->last = last;
  return RangeParse::Ok;
}

bool apply_byte_range(std::string_view range_value, HttpResponse& response) {
  if (response.status != 200) return false;
  if (response.producer != nullptr) return false;  // tail not materialized yet
  const std::uint64_t size = response.body_size();

  ByteRange range;
  switch (parse_byte_range(range_value, size, &range)) {
    case RangeParse::Ignore:
      return false;
    case RangeParse::Unsatisfiable: {
      response.status = 416;
      response.reason = std::string(default_reason(416));
      response.body = "requested range not satisfiable";
      response.stream_body.clear();
      response.headers.set("Content-Range", "bytes */" + std::to_string(size));
      response.headers.set("Content-Type", "text/plain");
      response.headers.set("Content-Length", std::to_string(response.body.size()));
      return true;
    }
    case RangeParse::Ok:
      break;
  }

  // Slice in place: the flat part (if any) becomes a chunk so boundary
  // arithmetic runs once over one chunk sequence; all slices share blocks.
  if (!response.body.empty()) {
    core::ChunkedBody combined;
    combined.append(core::Chunk::from_string(std::move(response.body)));
    for (const core::Chunk& chunk : response.stream_body.chunks()) {
      combined.append(chunk);
    }
    response.body.clear();
    response.stream_body = std::move(combined);
  }
  response.stream_body = response.stream_body.slice(range.first, range.length());
  response.status = 206;
  response.reason = std::string(default_reason(206));
  response.headers.set("Content-Range",
                       "bytes " + std::to_string(range.first) + "-" +
                           std::to_string(range.last) + "/" + std::to_string(size));
  response.headers.set("Content-Length", std::to_string(response.stream_body.size()));
  return true;
}

std::optional<ContentRange> parse_content_range(std::string_view value) {
  value = trim_spaces(value);
  constexpr std::string_view kUnit = "bytes";
  if (value.substr(0, kUnit.size()) != kUnit) return std::nullopt;
  value = value.substr(kUnit.size());
  if (value.empty() || (value.front() != ' ' && value.front() != '\t')) {
    return std::nullopt;
  }
  value = trim_spaces(value);
  const std::size_t slash = value.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::string_view range_part = trim_spaces(value.substr(0, slash));
  const std::string_view total_part = trim_spaces(value.substr(slash + 1));

  ContentRange out;
  if (total_part == "*") {
    out.total_known = false;
  } else {
    if (!parse_decimal(total_part, &out.total)) return std::nullopt;
    out.total_known = true;
  }

  if (range_part == "*") {
    // Unsatisfied-range form requires a known total per RFC 7233.
    if (!out.total_known) return std::nullopt;
    out.satisfied = false;
    return out;
  }

  const std::size_t dash = range_part.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  if (!parse_decimal(range_part.substr(0, dash), &out.first) ||
      !parse_decimal(range_part.substr(dash + 1), &out.last)) {
    return std::nullopt;
  }
  if (out.first > out.last) return std::nullopt;
  if (out.total_known && out.last >= out.total) return std::nullopt;
  out.satisfied = true;
  return out;
}

}  // namespace idicn::net
