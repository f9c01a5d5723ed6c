#include "net/uri.hpp"

#include <algorithm>

namespace idicn::net {
namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), ascii_lower);
  return out;
}

/// ASCII whitespace or control character: what the "C" locale's isspace
/// and iscntrl accept (the program never calls setlocale).
bool has_whitespace_or_control(std::string_view text) {
  return std::any_of(text.begin(), text.end(), [](unsigned char c) {
    return c <= ' ' || c == 0x7f;
  });
}

/// A target split into borrowed views: scheme and host as written (not
/// lowercased), empty for origin form; `rest` is the path and query.
struct TargetParts {
  std::string_view scheme;
  std::string_view host;
  std::uint16_t port = 0;
  std::string_view rest;
};

/// The one place that splits a request target. nullopt on malformed input
/// (empty host in absolute form, bad port, embedded whitespace…).
std::optional<TargetParts> split_target(std::string_view text) {
  if (text.empty() || has_whitespace_or_control(text)) return std::nullopt;

  // Strip any fragment.
  if (const std::size_t hash = text.find('#'); hash != std::string_view::npos) {
    text = text.substr(0, hash);
  }
  if (text.empty()) return std::nullopt;

  TargetParts parts;
  // Origin form: "/path?query".
  if (text.front() == '/') {
    parts.rest = text;
    return parts;
  }

  // Absolute form: "scheme://host[:port][/path][?query]".
  const std::size_t scheme_end = text.find("://");
  if (scheme_end == std::string_view::npos || scheme_end == 0) return std::nullopt;
  parts.scheme = text.substr(0, scheme_end);
  text.remove_prefix(scheme_end + 3);

  const std::size_t authority_end = text.find_first_of("/?");
  std::string_view authority = text.substr(0, authority_end);
  if (authority_end != std::string_view::npos) parts.rest = text.substr(authority_end);

  if (authority.empty()) return std::nullopt;
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view port_text = authority.substr(colon + 1);
    if (port_text.empty() || port_text.size() > 5) return std::nullopt;
    std::uint32_t port = 0;
    for (const char c : port_text) {
      if (c < '0' || c > '9') return std::nullopt;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (port == 0 || port > 65535) return std::nullopt;
    parts.port = static_cast<std::uint16_t>(port);
    authority = authority.substr(0, colon);
  }
  if (authority.empty()) return std::nullopt;
  parts.host = authority;
  return parts;
}

}  // namespace

std::string Uri::target() const {
  std::string out = path.empty() ? "/" : path;
  if (!query.empty()) {
    out.push_back('?');
    out += query;
  }
  return out;
}

std::string Uri::to_string() const {
  if (host.empty()) return target();
  std::string out = scheme + "://" + host;
  if (port != 0) out += ":" + std::to_string(port);
  out += target();
  return out;
}

std::optional<Uri> parse_uri(std::string_view text) {
  const auto parts = split_target(text);
  if (!parts) return std::nullopt;

  Uri uri;
  uri.scheme = to_lower(parts->scheme);
  uri.host = to_lower(parts->host);
  uri.port = parts->port;
  const std::string_view rest = parts->rest;
  if (rest.empty() || rest.front() == '?') {
    uri.path = "/";
    if (!rest.empty()) uri.query = std::string(rest.substr(1));
    return uri;
  }
  const std::size_t question = rest.find('?');
  uri.path = std::string(rest.substr(0, question));
  if (question != std::string_view::npos) {
    uri.query = std::string(rest.substr(question + 1));
  }
  return uri;
}

std::optional<std::string_view> absolute_form_host(std::string_view target) {
  const auto parts = split_target(target);
  if (!parts || parts->host.empty()) return std::nullopt;
  return parts->host;
}

}  // namespace idicn::net
