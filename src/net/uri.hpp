// Minimal URI parser for the idICN prototype.
//
// Handles the absolute-form http URIs the prototype exchanges
// ("http://host:port/path?query") plus origin-form request targets
// ("/path?query"). Deliberately not a full RFC 3986 implementation — no
// userinfo, fragments are accepted and stripped, IPv6 literals are out of
// scope for the simulated network.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace idicn::net {

struct Uri {
  std::string scheme;      ///< lowercase; empty for origin-form targets
  std::string host;        ///< lowercase; empty for origin-form targets
  std::uint16_t port = 0;  ///< 0 = scheme default (http → 80)
  std::string path;        ///< always begins with '/' (defaults to "/")
  std::string query;       ///< without the leading '?'

  /// Effective port (explicit, or the scheme default).
  [[nodiscard]] std::uint16_t effective_port() const noexcept {
    if (port != 0) return port;
    return scheme == "http" ? 80 : 0;
  }

  /// path + ("?" + query) — the origin-form request target.
  [[nodiscard]] std::string target() const;

  /// Reassemble the full URI (absolute form when host is set).
  [[nodiscard]] std::string to_string() const;
};

/// Parse absolute-form or origin-form. Returns std::nullopt on malformed
/// input (empty host in absolute form, bad port, embedded whitespace…).
[[nodiscard]] std::optional<Uri> parse_uri(std::string_view text);

/// The host of an absolute-form target, borrowed as written: parse_uri's
/// `host` before lowercasing. nullopt exactly when parse_uri would fail or
/// find no host (origin form). Nothing is copied or allocated.
[[nodiscard]] std::optional<std::string_view> absolute_form_host(
    std::string_view target);

/// ASCII lowercase, as the "C" locale's tolower (the program never calls
/// setlocale): hosts and URI schemes are case-insensitive ASCII.
[[nodiscard]] constexpr char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace idicn::net
