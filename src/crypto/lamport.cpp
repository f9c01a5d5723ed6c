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

using ChainValues = std::array<Sha256Digest, kWotsChains>;

/// Fill a digest-sized buffer from a seeded PRNG (deterministic keygen).
Sha256Digest random_digest(std::mt19937_64& rng) {
  Sha256Digest d{};
  for (std::size_t i = 0; i < d.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(d.data() + i, &word, 8);
  }
  return d;
}

/// One leaf's W-OTS secrets, regenerated from its seed whenever needed.
ChainValues leaf_secrets(std::uint64_t seed, std::size_t leaf) {
  // Per-leaf seeds are derived, not sequential, so adjacent keys differ.
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + leaf * 0xb492b66fbe98f273ULL + leaf);
  ChainValues secrets{};
  for (Sha256Digest& secret : secrets) secret = random_digest(rng);
  return secrets;
}

/// Hash `value` `steps` positions further along its chain.
void chain_forward(Sha256Digest& value, unsigned steps) {
  for (unsigned step = 0; step < steps; ++step) value = Sha256::hash32(value);
}

/// Hash of the concatenation of two digests (Merkle interior node).
Sha256Digest hash_pair(const Sha256Digest& left, const Sha256Digest& right) {
  Sha256 h;
  h.update(std::span<const std::uint8_t>(left));
  h.update(std::span<const std::uint8_t>(right));
  return h.finish();
}

/// The bytes of a digest array. No padding means they are exactly the
/// digests back to back — the canonical serialization.
std::span<const std::uint8_t> bytes_of(const ChainValues& values) {
  static_assert(std::has_unique_object_representations_v<ChainValues>);
  return {reinterpret_cast<const std::uint8_t*>(&values), sizeof(ChainValues)};
}

std::span<std::uint8_t> writable_bytes_of(ChainValues& values) {
  return {reinterpret_cast<std::uint8_t*>(&values), sizeof(ChainValues)};
}

/// The Merkle leaf of one W-OTS key: the hash of its 133 chain ends.
Sha256Digest leaf_of(const ChainValues& ends) { return Sha256::hash(bytes_of(ends)); }

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

WotsDigits wots_digits(const Sha256Digest& digest) noexcept {
  constexpr unsigned kDigitsPerByte = 8 / kWotsBitsPerDigit;
  constexpr unsigned kDigitMask = kWotsW - 1;
  WotsDigits digits{};
  unsigned checksum = 0;
  for (std::size_t i = 0; i < kWotsMessageDigits; ++i) {
    const unsigned shift = 8 - kWotsBitsPerDigit * (1 + i % kDigitsPerByte);
    const unsigned digit = (digest[i / kDigitsPerByte] >> shift) & kDigitMask;
    digits[i] = static_cast<std::uint8_t>(digit);
    checksum += kDigitMask - digit;
  }
  for (std::size_t i = 0; i < kWotsChecksumDigits; ++i) {
    const unsigned shift = kWotsBitsPerDigit * (kWotsChecksumDigits - 1 - i);
    digits[kWotsMessageDigits + i] =
        static_cast<std::uint8_t>((checksum >> shift) & kDigitMask);
  }
  return digits;
}

std::string MerkleSignature::encode() const {
  std::array<char, 10> index{};
  char* const index_end =
      std::to_chars(index.data(), index.data() + index.size(), leaf_index).ptr;
  const auto values = bytes_of(chains);
  const std::size_t path_len =
      auth_path.empty() ? 0 : auth_path.size() * (kHexDigestLen + 1) - 1;
  std::string out(static_cast<std::size_t>(index_end - index.data()) + 1 +
                      2 * values.size() + 1 + path_len,
                  '\0');
  char* cursor = std::copy(index.data(), index_end, out.data());
  *cursor++ = ':';
  cursor = hex_encode_to(values, cursor);
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

  // The chain values have a fixed length; they decode straight into their
  // array and must end in ':'.
  const auto values = writable_bytes_of(sig.chains);
  const std::size_t values_len = 2 * values.size();
  if (text.size() <= values_len || text[values_len] != ':' ||
      !hex_decode(text.substr(0, values_len), values)) {
    return std::nullopt;
  }
  text.remove_prefix(values_len + 1);

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

MerkleSigner::MerkleSigner(std::uint64_t seed, unsigned height) : seed_(seed) {
  const std::size_t leaf_count = static_cast<std::size_t>(1) << height;
  std::vector<Sha256Digest> leaves;
  leaves.reserve(leaf_count);
  for (std::size_t i = 0; i < leaf_count; ++i) {
    ChainValues ends = leaf_secrets(seed, i);
    for (Sha256Digest& value : ends) chain_forward(value, kWotsW - 1);
    leaves.push_back(leaf_of(ends));
  }

  tree_.push_back(std::move(leaves));
  while (tree_.back().size() > 1) {
    const std::vector<Sha256Digest>& prev = tree_.back();
    std::vector<Sha256Digest> next;
    next.reserve(prev.size() / 2);
    for (std::size_t i = 0; i < prev.size(); i += 2) {
      next.push_back(hash_pair(prev[i], prev[i + 1]));
    }
    tree_.push_back(std::move(next));
  }
}

std::string MerkleSigner::fingerprint_hex() const {
  const Sha256Digest fp = Sha256::hash32(root());
  return hex_encode(std::span<const std::uint8_t>(fp));
}

std::size_t MerkleSigner::remaining() const noexcept {
  const std::size_t claimed = next_leaf_.load();
  return claimed < capacity() ? capacity() - claimed : 0;
}

MerkleSignature MerkleSigner::sign(std::string_view message) {
  // The increment is the whole claim: no two callers get one leaf, and
  // the tree it reads below is immutable.
  const std::size_t leaf = next_leaf_.fetch_add(1);
  if (leaf >= capacity()) {
    throw std::runtime_error("MerkleSigner: all one-time keys exhausted");
  }

  MerkleSignature sig;
  sig.leaf_index = static_cast<std::uint32_t>(leaf);
  sig.chains = leaf_secrets(seed_, leaf);
  const WotsDigits digits = wots_digits(Sha256::hash(message));
  for (std::size_t i = 0; i < kWotsChains; ++i) chain_forward(sig.chains[i], digits[i]);

  sig.auth_path.reserve(tree_.size() - 1);
  std::size_t index = leaf;
  for (std::size_t level = 0; level + 1 < tree_.size(); ++level) {
    sig.auth_path.push_back(tree_[level][index ^ 1]);
    index /= 2;
  }
  return sig;
}

bool MerkleSigner::verify(const Sha256Digest& root, std::string_view message,
                          const MerkleSignature& sig) {
  // Finish each chain: a valid signature lands on the signing key's public
  // ends, whose hash is the leaf the auth path climbs from.
  const WotsDigits digits = wots_digits(Sha256::hash(message));
  ChainValues ends = sig.chains;
  for (std::size_t i = 0; i < kWotsChains; ++i) {
    chain_forward(ends[i], kWotsW - 1 - digits[i]);
  }

  Sha256Digest node = leaf_of(ends);
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
