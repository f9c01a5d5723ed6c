#include "idicn/name.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "crypto/base32.hpp"

namespace idicn::idicn {
namespace {

std::string to_lower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

bool valid_publisher_b32(std::string_view text) {
  const auto bytes = crypto::base32_decode(text);
  return bytes.has_value() && bytes->size() == 32;
}

}  // namespace

bool valid_dns_label(std::string_view label) {
  if (label.empty() || label.size() > 63) return false;
  if (label.front() == '-' || label.back() == '-') return false;
  return std::all_of(label.begin(), label.end(), [](unsigned char c) {
    return std::islower(c) || std::isdigit(c) || c == '-';
  });
}

SelfCertifyingName::SelfCertifyingName(std::string label, std::string publisher_b32)
    : label_(std::move(label)), publisher_(std::move(publisher_b32)) {
  if (!valid_dns_label(label_)) {
    throw std::invalid_argument("SelfCertifyingName: invalid label: " + label_);
  }
  if (!valid_publisher_b32(publisher_)) {
    throw std::invalid_argument("SelfCertifyingName: invalid publisher id");
  }
}

std::string SelfCertifyingName::publisher_id(const crypto::Sha256Digest& root_key) {
  const crypto::Sha256Digest fingerprint = crypto::Sha256::hash32(root_key);
  return crypto::base32_encode(std::span<const std::uint8_t>(fingerprint));
}

std::optional<SelfCertifyingName> SelfCertifyingName::parse_host(std::string_view host) {
  const std::string lowered = to_lower(host);
  // Expect exactly "<L>.<P>.idicn.org".
  const std::string suffix = "." + std::string(kIdicnDomain);
  if (lowered.size() <= suffix.size() ||
      lowered.compare(lowered.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const std::string_view name_part =
      std::string_view(lowered).substr(0, lowered.size() - suffix.size());
  const std::size_t dot = name_part.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string_view label = name_part.substr(0, dot);
  const std::string_view publisher = name_part.substr(dot + 1);
  if (publisher.find('.') != std::string_view::npos) return std::nullopt;
  if (!valid_dns_label(label) || !valid_publisher_b32(publisher)) return std::nullopt;

  SelfCertifyingName name;
  name.label_ = std::string(label);
  name.publisher_ = std::string(publisher);
  return name;
}

std::string SelfCertifyingName::host() const {
  return label_ + "." + publisher_ + "." + std::string(kIdicnDomain);
}

std::string SelfCertifyingName::flat() const { return label_ + "." + publisher_; }

}  // namespace idicn::idicn
