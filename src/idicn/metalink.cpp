#include "idicn/metalink.hpp"

#include "crypto/hex.hpp"

namespace idicn::idicn {

std::string ContentMetadata::signing_input() const {
  return "idicn-content-v1\n" + name.host() + "\n" +
         crypto::hex_encode(std::span<const std::uint8_t>(digest)) + "\n";
}

void ContentMetadata::apply_to(net::HeaderMap& headers, bool include_proof) const {
  headers.set("X-IdICN-Name", name.host());
  headers.set("X-IdICN-Digest",
              "sha-256=" + crypto::hex_encode(std::span<const std::uint8_t>(digest)));
  if (include_proof) {
    headers.set("X-IdICN-Publisher",
                crypto::hex_encode(std::span<const std::uint8_t>(publisher_key)));
    headers.set("X-IdICN-Signature", signature.encode());
  }
  headers.remove("Link");
  for (const std::string& mirror : mirrors) {
    headers.add("Link", "<" + mirror + ">; rel=duplicate");
  }
}

std::optional<ContentMetadata> ContentMetadata::from_headers(
    const net::HeaderMap& headers) {
  ContentMetadata metadata;

  const auto name_value = headers.get_view("X-IdICN-Name");
  if (!name_value) return std::nullopt;
  const auto name = SelfCertifyingName::parse_host(*name_value);
  if (!name) return std::nullopt;
  metadata.name = *name;

  const auto digest_value = headers.get_view("X-IdICN-Digest");
  if (!digest_value || !digest_value->starts_with("sha-256=") ||
      !crypto::hex_decode(digest_value->substr(8), metadata.digest)) {
    return std::nullopt;
  }

  const auto key_value = headers.get_view("X-IdICN-Publisher");
  if (!key_value || !crypto::hex_decode(*key_value, metadata.publisher_key)) {
    return std::nullopt;
  }

  // The proof is ~9 KB of hex: decoded from a view of the header value,
  // never copied.
  const auto signature_value = headers.get_view("X-IdICN-Signature");
  if (!signature_value) return std::nullopt;
  auto signature = crypto::MerkleSignature::decode(*signature_value);
  if (!signature) return std::nullopt;
  metadata.signature = std::move(*signature);

  for (const std::string& link : headers.get_all("Link")) {
    // "<uri>; rel=duplicate"
    const std::size_t open = link.find('<');
    const std::size_t close = link.find('>');
    if (open == std::string::npos || close == std::string::npos || close < open) continue;
    if (link.find("rel=duplicate") == std::string::npos) continue;
    metadata.mirrors.push_back(link.substr(open + 1, close - open - 1));
  }
  return metadata;
}

const char* to_string(VerifyResult result) {
  switch (result) {
    case VerifyResult::Ok: return "ok";
    case VerifyResult::DigestMismatch: return "digest-mismatch";
    case VerifyResult::PublisherMismatch: return "publisher-mismatch";
    case VerifyResult::BadSignature: return "bad-signature";
  }
  return "unknown";
}

VerifyResult verify_content(const ContentMetadata& metadata, std::string_view body) {
  return verify_content(metadata, crypto::Sha256::hash(body));
}

VerifyResult verify_content(const ContentMetadata& metadata,
                            const crypto::Sha256Digest& body_digest) {
  // 1. The body must hash to the advertised digest.
  if (body_digest != metadata.digest) {
    return VerifyResult::DigestMismatch;
  }
  // 2. The enclosed key must be the one the name commits to (P).
  if (SelfCertifyingName::publisher_id(metadata.publisher_key) !=
      metadata.name.publisher()) {
    return VerifyResult::PublisherMismatch;
  }
  // 3. The signature must verify the (name, digest) binding under that key.
  if (!crypto::MerkleSigner::verify(metadata.publisher_key, metadata.signing_input(),
                                    metadata.signature)) {
    return VerifyResult::BadSignature;
  }
  return VerifyResult::Ok;
}

}  // namespace idicn::idicn
