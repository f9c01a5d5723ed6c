// Hash-based signatures for idICN's content-oriented security (§6.1).
//
// The paper's idICN design binds content to a publisher through
// self-certifying names L.P where P is the cryptographic hash of the
// publisher's public key, and content is delivered together with a digital
// signature that anyone can verify against P. We implement this with
// hash-based signatures built entirely on our from-scratch SHA-256:
//
//  * Winternitz one-time signatures (W-OTS, w = 4). The message's SHA-256
//    is read as 128 base-4 digits, followed by 5 digits of checksum. Each
//    digit d picks a position on its own hash chain (secret, H(secret),
//    H²(secret), H³(secret) = public end): the signature reveals the
//    value d steps from the secret, and the verifier hashes it the
//    remaining 3 − d steps to the public end. The checksum counts how far
//    the message digits are from the top, so raising any message digit by
//    hashing forward lowers a checksum digit, which would need hashing
//    backward.
//  * MerkleSigner / MerkleSignature — a Merkle signature scheme (MSS) that
//    aggregates 2^h W-OTS public keys under one Merkle root, so a
//    publisher has a *stable* public key (the root) whose hash is P while
//    still being able to sign many objects. Each leaf is the hash of one
//    key's 133 chain ends; a signature carries the leaf index, the 133
//    revealed chain values and the Merkle authentication path, and the
//    verifier recomputes the leaf from them, so no one-time public key
//    travels.
//
// This is the core of XMSS (RFC 8391) without its bitmasks and tweaks:
// real, verifiable constructions, not mock crypto; tests include
// tamper/forge rejection. The file keeps its historical name from the
// Lamport scheme W-OTS replaced, because the benchmark harness includes it
// by this path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"

namespace idicn::crypto {

/// The Winternitz parameter: each hash chain has w positions, so one chain
/// signs log2(w) bits of the digest. w = 4 keeps a verification near 200
/// chain hashes; w = 16 would halve the signature but nearly double that.
inline constexpr unsigned kWotsW = 4;
inline constexpr unsigned kWotsBitsPerDigit = 2;
inline constexpr std::size_t kWotsMessageDigits = 256 / kWotsBitsPerDigit;
/// The checksum Σ (w − 1 − digit) is at most 128 × 3 = 384 < 4^5.
inline constexpr std::size_t kWotsChecksumDigits = 5;
inline constexpr std::size_t kWotsChains = kWotsMessageDigits + kWotsChecksumDigits;
static_assert(std::size_t{1} << kWotsBitsPerDigit == kWotsW);
static_assert(kWotsMessageDigits * (kWotsW - 1) <
              std::size_t{1} << (kWotsBitsPerDigit * kWotsChecksumDigits));

/// One base-w digit per chain: the message digits, then the checksum's.
using WotsDigits = std::array<std::uint8_t, kWotsChains>;

/// The digits a W-OTS signature over `digest` reveals chain positions for:
/// the digest's bits two at a time, most significant first, then the
/// checksum Σ (w − 1 − digit) over those 128 digits, most significant
/// digit first.
[[nodiscard]] WotsDigits wots_digits(const Sha256Digest& digest) noexcept;

/// A many-time signature: one W-OTS signature authenticated under a Merkle
/// root.
struct MerkleSignature {
  std::uint32_t leaf_index = 0;  ///< which one-time key signed
  /// Chain i's value wots_digits(H(message))[i] steps from its secret.
  std::array<Sha256Digest, kWotsChains> chains{};
  std::vector<Sha256Digest> auth_path;  ///< sibling hashes, leaf → root

  /// Textual encoding used in the X-IdICN-Signature header:
  /// "<leaf>:<hex of the 133 chain values>:<hex path nodes joined by ','>".
  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static std::optional<MerkleSignature> decode(std::string_view text);

  bool operator==(const MerkleSignature&) const = default;
};

/// A publisher identity: 2^height W-OTS keys under one Merkle root.
///
/// The Merkle root serves as the publisher's long-lived public key; its
/// SHA-256 fingerprint is the P component of self-certifying names. The
/// signer keeps its seed and the tree, not the keys: sign() regenerates
/// the one leaf's secrets it needs.
///
/// Thread-safe: sign() claims its leaf with one atomic increment, so
/// concurrent callers (two reverse proxies sharing a publisher key, say)
/// never sign two messages with one one-time key.
class MerkleSigner {
public:
  /// Derive 2^height one-time keys deterministically from `seed` (keeps
  /// the simulator reproducible; a deployment would use an OS CSPRNG).
  MerkleSigner(std::uint64_t seed, unsigned height);

  /// The publisher's stable public key (the Merkle root).
  [[nodiscard]] const Sha256Digest& root() const noexcept { return tree_.back().front(); }

  /// Hex fingerprint of the root — the P used in names (L.P).
  [[nodiscard]] std::string fingerprint_hex() const;

  /// How many signatures remain before the key is exhausted.
  [[nodiscard]] std::size_t remaining() const noexcept;

  /// Total one-time keys (2^height).
  [[nodiscard]] std::size_t capacity() const noexcept { return tree_.front().size(); }

  /// Sign `message` with the next unused one-time key.
  /// Throws std::runtime_error when all one-time keys are exhausted.
  [[nodiscard]] MerkleSignature sign(std::string_view message);

  /// Verify `sig` over `message` against a Merkle `root`.
  [[nodiscard]] static bool verify(const Sha256Digest& root, std::string_view message,
                                   const MerkleSignature& sig);

private:
  std::uint64_t seed_;
  std::vector<std::vector<Sha256Digest>> tree_;  // tree_[0] = leaves, last = {root}
  /// Leaves claimed so far; may run past capacity() as exhausted calls throw.
  std::atomic<std::size_t> next_leaf_{0};
};

}  // namespace idicn::crypto
