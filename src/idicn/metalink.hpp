// Metalink-style content metadata over HTTP headers (§6.1).
//
// The reverse proxy attaches, and caches/clients verify, per-object
// metadata: the content digest, the publisher's public key (Merkle root)
// and a hash-based signature over (name ‖ digest), plus mirror locations.
// We follow the spirit of Metalink/HTTP (RFC 6249): digests and duplicate
// mirrors ride in response headers that legacy clients simply ignore.
//
// Headers:
//   X-IdICN-Name:       <L>.<P>.idicn.org
//   X-IdICN-Digest:     sha-256=<hex>
//   X-IdICN-Publisher:  <hex Merkle root (the public key)>
//   X-IdICN-Signature:  <MerkleSignature::encode()>
//   Link: <uri>; rel=duplicate        (zero or more mirrors)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "idicn/name.hpp"
#include "net/http_message.hpp"

namespace idicn::idicn {

/// Request header a caller sets (any value) to receive the full
/// verification proof in the response. Proxies set it on every upstream
/// fetch (they always verify); end clients set it only when configured for
/// end-to-end verification. Plain browsers never send it, so the §6 common
/// case — a cache HIT to a trusting client — stays small on the wire.
inline constexpr const char* kWantMetadataHeader = "X-IdICN-Want-Metadata";

struct ContentMetadata {
  SelfCertifyingName name;
  crypto::Sha256Digest digest{};      ///< SHA-256 of the content bytes
  crypto::Sha256Digest publisher_key{};  ///< publisher's Merkle root
  crypto::MerkleSignature signature;  ///< over signing_input()
  std::vector<std::string> mirrors;   ///< alternate locations (Link rel=duplicate)

  /// The byte string the signature covers: binds the name to the digest so
  /// a valid signature for one object cannot be replayed for another.
  [[nodiscard]] std::string signing_input() const;

  /// Attach to / extract from HTTP headers. `include_proof` controls the
  /// expensive proof fields (publisher key + hash-based signature, about
  /// 9 KB of hex); without them only the name, digest, and mirrors ride
  /// along — enough for an integrity hint, not for verification. Callers
  /// that verify must request the proof (see kWantMetadataHeader).
  void apply_to(net::HeaderMap& headers, bool include_proof = true) const;
  [[nodiscard]] static std::optional<ContentMetadata> from_headers(
      const net::HeaderMap& headers);
};

/// Verification outcome; distinguishes the failure modes so callers (and
/// tests) can tell tampering from key substitution.
enum class VerifyResult {
  Ok,
  DigestMismatch,    ///< body does not hash to the advertised digest
  PublisherMismatch, ///< hash of enclosed key != P in the name
  BadSignature       ///< signature does not verify under the enclosed key
};

[[nodiscard]] const char* to_string(VerifyResult result);

/// Full content-oriented verification: digest, name↔key binding, signature.
/// This is the ICN security property — no trust in the delivery path.
[[nodiscard]] VerifyResult verify_content(const ContentMetadata& metadata,
                                          std::string_view body);

/// Same checks with a precomputed body digest — the streaming fetch path
/// hashes chunks incrementally as they arrive off the wire, so the full
/// body never needs to be contiguous in memory for verification.
[[nodiscard]] VerifyResult verify_content(const ContentMetadata& metadata,
                                          const crypto::Sha256Digest& body_digest);

}  // namespace idicn::idicn
