// Shared internals of the HTTP codec: start-line and header-field grammar
// used by both the complete-message parsers (http_message.cpp) and the
// incremental HttpDecoder (http_decoder.cpp), so the two can never drift
// apart on what constitutes a well-formed message.
#pragma once

#include <algorithm>
#include <cctype>
#include <charconv>
#include <string_view>

#include "net/http_message.hpp"

namespace idicn::net::detail {

inline bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

inline bool is_token_char(char c) {
  // RFC 7230 tchar.
  constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return std::isalnum(static_cast<unsigned char>(c)) ||
         kExtra.find(c) != std::string_view::npos;
}

inline bool valid_header_name(std::string_view name) {
  return !name.empty() && std::all_of(name.begin(), name.end(), is_token_char);
}

inline std::string_view trim_ows(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

/// True when the comma-separated list `value` names `token`, compared
/// case-insensitively: Connection options are such a list (RFC 9110
/// §7.6.1), so "CLOSE" and "keep-alive, close" both ask to close.
inline bool token_list_contains(std::string_view value, std::string_view token) {
  while (true) {
    const std::size_t comma = value.find(',');
    if (iequals(trim_ows(value.substr(0, comma)), token)) return true;
    if (comma == std::string_view::npos) return false;
    value.remove_prefix(comma + 1);
  }
}

inline void fail(ParseError* error, std::string message) {
  if (error != nullptr) error->message = std::move(message);
}

/// Parse one "Name: value" line (no trailing CRLF) into `headers`.
inline bool parse_header_line(std::string_view line, HeaderMap& headers,
                              ParseError* error) {
  const std::size_t colon = line.find(':');
  if (colon == std::string_view::npos) {
    fail(error, "header field missing ':'");
    return false;
  }
  const std::string_view name = line.substr(0, colon);
  if (!valid_header_name(name)) {
    fail(error, "invalid header field name");
    return false;
  }
  headers.add(std::string(name), std::string(trim_ows(line.substr(colon + 1))));
  return true;
}

/// Parse "METHOD SP target SP HTTP-version" (no trailing CRLF).
inline bool parse_request_line(std::string_view line, HttpRequest& request,
                               ParseError* error) {
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    fail(error, "malformed request line");
    return false;
  }
  request.method = std::string(line.substr(0, sp1));
  request.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request.version = std::string(line.substr(sp2 + 1));
  if (request.method.empty() ||
      !std::all_of(request.method.begin(), request.method.end(), is_token_char)) {
    fail(error, "invalid method");
    return false;
  }
  if (request.target.empty()) {
    fail(error, "empty request target");
    return false;
  }
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    fail(error, "unsupported HTTP version");
    return false;
  }
  return true;
}

/// Parse "HTTP-version SP 3-digit-status [SP reason]" (no trailing CRLF).
inline bool parse_status_line(std::string_view line, HttpResponse& response,
                              ParseError* error) {
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) {
    fail(error, "malformed status line");
    return false;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  response.version = std::string(line.substr(0, sp1));
  if (response.version != "HTTP/1.1" && response.version != "HTTP/1.0") {
    fail(error, "unsupported HTTP version");
    return false;
  }
  const std::string_view code_text =
      line.substr(sp1 + 1, sp2 == std::string_view::npos ? sp2 : sp2 - sp1 - 1);
  if (code_text.size() != 3 ||
      !std::all_of(code_text.begin(), code_text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    fail(error, "invalid status code");
    return false;
  }
  response.status = (code_text[0] - '0') * 100 + (code_text[1] - '0') * 10 +
                    (code_text[2] - '0');
  response.reason =
      sp2 == std::string_view::npos ? std::string() : std::string(line.substr(sp2 + 1));
  return true;
}

/// Parse one chunk-size line of the chunked transfer coding (RFC 7230
/// §4.1): hex size, optionally followed by ";ext=..." chunk extensions
/// (accepted and ignored). No trailing CRLF. False on malformed input.
inline bool parse_chunk_size(std::string_view line, std::size_t& size) {
  const std::size_t semi = line.find(';');
  std::string_view digits =
      trim_ows(semi == std::string_view::npos ? line : line.substr(0, semi));
  if (digits.empty()) return false;
  const auto [ptr, ec] = std::from_chars(
      digits.data(), digits.data() + digits.size(), size, /*base=*/16);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

/// Read the Content-Length of a parsed header block (0 when absent).
inline bool parse_content_length(const HeaderMap& headers, std::size_t& length,
                                 ParseError* error) {
  length = 0;
  if (const auto value = headers.get("Content-Length")) {
    const auto [ptr, ec] =
        std::from_chars(value->data(), value->data() + value->size(), length);
    if (ec != std::errc() || ptr != value->data() + value->size()) {
      fail(error, "invalid Content-Length");
      return false;
    }
  }
  return true;
}

}  // namespace idicn::net::detail
