#include "crypto/lamport.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <type_traits>

#include "crypto/hex.hpp"

namespace idicn::crypto {
namespace {

/// Fill a digest-sized buffer from a seeded PRNG (deterministic keygen).
Sha256Digest random_digest(std::mt19937_64& rng) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(d.data() + i, &word, 8);
  }
  return d;
}

/// Hash of the concatenation of two digests (Merkle interior node).
Sha256Digest hash_pair(const Sha256Digest& left, const Sha256Digest& right) {
  Sha256 h;
  h.update(std::span<const std::uint8_t>(left));
  h.update(std::span<const std::uint8_t>(right));
  return h.finish();
}

/// Extract bit `i` (MSB-first within each byte) of a digest.
bool digest_bit(const Sha256Digest& d, std::size_t i) {
  return (d[i / 8] >> (7 - i % 8)) & 1;
}

/// The bytes of a (nested) digest array. No padding means they are exactly
/// the digests back to back — the canonical serialization.
template <typename Digests>
std::span<const std::uint8_t> bytes_of(const Digests& digests) {
  static_assert(std::has_unique_object_representations_v<Digests>);
  return {reinterpret_cast<const std::uint8_t*>(&digests), sizeof(Digests)};
}

template <typename Digests>
std::span<std::uint8_t> writable_bytes_of(Digests& digests) {
  static_assert(std::has_unique_object_representations_v<Digests>);
  return {reinterpret_cast<std::uint8_t*>(&digests), sizeof(Digests)};
}

constexpr std::size_t kHexDigestLen = 2 * sizeof(Sha256Digest);

/// A decimal uint32 of 1-10 digits. Values above UINT32_MAX are refused,
/// not wrapped: "4294967297" must not decode as leaf 1.
std::optional<std::uint32_t> parse_index(std::string_view text) {
  if (text.empty() || text.size() > 10) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  return static_cast<std::uint32_t>(value);
}

}  // namespace

Sha256Digest LamportPublicKey::fingerprint() const {
  return Sha256::hash(bytes_of(pairs));
}

LamportKeyPair lamport_keygen(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LamportKeyPair kp;
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t b = 0; b < 2; ++b) {
      kp.secret.pairs[i][b] = random_digest(rng);
      kp.pub.pairs[i][b] = Sha256::hash32(kp.secret.pairs[i][b]);
    }
  }
  return kp;
}

LamportSignature lamport_sign(const LamportSecretKey& key, std::string_view message) {
  const Sha256Digest digest = Sha256::hash(message);
  LamportSignature sig;
  for (std::size_t i = 0; i < 256; ++i) {
    sig.revealed[i] = key.pairs[i][digest_bit(digest, i) ? 1 : 0];
  }
  return sig;
}

bool lamport_verify(const LamportPublicKey& key, std::string_view message,
                    const LamportSignature& sig) {
  const Sha256Digest digest = Sha256::hash(message);
  for (std::size_t i = 0; i < 256; ++i) {
    const std::size_t bit = digest_bit(digest, i) ? 1 : 0;
    if (Sha256::hash32(sig.revealed[i]) != key.pairs[i][bit]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Merkle signature scheme
// ---------------------------------------------------------------------------

std::string MerkleSignature::encode() const {
  std::array<char, 10> index{};
  char* const index_end =
      std::to_chars(index.data(), index.data() + index.size(), leaf_index).ptr;
  const auto key = bytes_of(ots_public_key.pairs);
  const auto ots = bytes_of(ots_signature.revealed);
  const std::size_t path_len =
      auth_path.empty() ? 0 : auth_path.size() * (kHexDigestLen + 1) - 1;
  std::string out(static_cast<std::size_t>(index_end - index.data()) + 1 +
                      2 * key.size() + 1 + 2 * ots.size() + 1 + path_len,
                  '\0');
  char* cursor = std::copy(index.data(), index_end, out.data());
  *cursor++ = ':';
  cursor = hex_encode_to(key, cursor);
  *cursor++ = ':';
  cursor = hex_encode_to(ots, cursor);
  *cursor++ = ':';
  for (std::size_t i = 0; i < auth_path.size(); ++i) {
    if (i > 0) *cursor++ = ',';
    cursor = hex_encode_to(auth_path[i], cursor);
  }
  return out;
}

std::optional<MerkleSignature> MerkleSignature::decode(std::string_view text) {
  MerkleSignature sig;

  const std::size_t colon = text.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto index = parse_index(text.substr(0, colon));
  if (!index) return std::nullopt;
  sig.leaf_index = *index;
  text.remove_prefix(colon + 1);

  // The key and signature fields have fixed lengths; each decodes straight
  // into its array and must end in ':'.
  const auto take_field = [&text](std::span<std::uint8_t> out) {
    const std::size_t len = 2 * out.size();
    if (text.size() <= len || text[len] != ':') return false;
    if (!hex_decode(text.substr(0, len), out)) return false;
    text.remove_prefix(len + 1);
    return true;
  };
  if (!take_field(writable_bytes_of(sig.ots_public_key.pairs)) ||
      !take_field(writable_bytes_of(sig.ots_signature.revealed))) {
    return std::nullopt;
  }

  // Remainder: comma-separated auth path (may be empty for height-0 trees).
  while (!text.empty()) {
    Sha256Digest node{};
    if (!hex_decode(text.substr(0, kHexDigestLen), node)) return std::nullopt;
    sig.auth_path.push_back(node);
    text.remove_prefix(kHexDigestLen);
    if (text.empty()) break;
    if (text.front() != ',' || text.size() == 1) return std::nullopt;
    text.remove_prefix(1);
  }
  return sig;
}

MerkleSigner::MerkleSigner(std::uint64_t seed, unsigned height) {
  const std::size_t leaf_count = static_cast<std::size_t>(1) << height;
  keys_.reserve(leaf_count);
  leaves_.reserve(leaf_count);
  for (std::size_t i = 0; i < leaf_count; ++i) {
    // Per-leaf seeds are derived, not sequential, so adjacent keys differ.
    keys_.push_back(lamport_keygen(seed * 0x9e3779b97f4a7c15ULL + i * 0xb492b66fbe98f273ULL + i));
    leaves_.push_back(keys_.back().pub.fingerprint());
  }

  tree_.push_back(leaves_);
  while (tree_.back().size() > 1) {
    const std::vector<Sha256Digest>& prev = tree_.back();
    std::vector<Sha256Digest> next;
    next.reserve((prev.size() + 1) / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      next.push_back(hash_pair(prev[i], prev[i + 1]));
    }
    tree_.push_back(std::move(next));
  }
  root_ = tree_.back().front();
}

std::string MerkleSigner::fingerprint_hex() const {
  const Sha256Digest fp = Sha256::hash32(root_);
  return hex_encode(std::span<const std::uint8_t>(fp));
}

std::size_t MerkleSigner::remaining() const noexcept {
  return leaves_.size() - next_leaf_;
}

MerkleSignature MerkleSigner::sign(std::string_view message) {
  if (next_leaf_ >= leaves_.size()) {
    throw std::runtime_error("MerkleSigner: all one-time keys exhausted");
  }
  const std::size_t leaf = next_leaf_++;

  MerkleSignature sig;
  sig.leaf_index = static_cast<std::uint32_t>(leaf);
  sig.ots_public_key = keys_[leaf].pub;
  sig.ots_signature = lamport_sign(keys_[leaf].secret, message);

  std::size_t index = leaf;
  for (std::size_t level = 0; level + 1 < tree_.size(); ++level) {
    const std::size_t sibling = index ^ 1;
    sig.auth_path.push_back(tree_[level][sibling]);
    index /= 2;
  }
  return sig;
}

bool MerkleSigner::verify(const Sha256Digest& root, std::string_view message,
                          const MerkleSignature& sig) {
  if (!lamport_verify(sig.ots_public_key, message, sig.ots_signature)) return false;

  Sha256Digest node = sig.ots_public_key.fingerprint();
  std::size_t index = sig.leaf_index;
  for (const Sha256Digest& sibling : sig.auth_path) {
    node = (index & 1) ? hash_pair(sibling, node) : hash_pair(node, sibling);
    index /= 2;
  }
  // Bits left over name a leaf outside the tree: the path only read the
  // low ones, so without this check leaf i + 2^height would pass as leaf i.
  return index == 0 && node == root;
}

}  // namespace idicn::crypto
