// SHA-256 (FIPS 180-4) implemented from scratch.
//
// idICN's self-certifying names (§6.1 of the paper) bind a content label L
// to the cryptographic hash P of a publisher's public key, and the Metalink
// metadata carries content digests. Both need a real hash function; this is
// a dependency-free implementation with an incremental streaming interface.
// The compression runs on the CPU's SHA extensions (x86-64 SHA-NI) when
// CPUID reports them, and on portable C++ otherwise (sha256_blocks.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace idicn::crypto {

/// A 32-byte SHA-256 digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
///
/// Usage:
///   Sha256 h;
///   h.update(part1);
///   h.update(part2);
///   Sha256Digest d = h.finish();
///
/// After finish() the object may be reused via reset().
class Sha256 {
public:
  Sha256() noexcept { reset(); }

  /// Restore the initial state so the object can hash a new message.
  void reset() noexcept;

  /// Absorb `data` into the running hash.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view data) noexcept;

  /// Apply padding and produce the digest. The object must be reset()
  /// before further use.
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot convenience helpers.
  [[nodiscard]] static Sha256Digest hash(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] static Sha256Digest hash(std::string_view data) noexcept;

  /// SHA-256 of one 32-byte value: one step along a Winternitz hash chain.
  /// With SHA-NI it is a single compression with constant padding and no
  /// streaming state, about half of hash()'s cost on the 399 chain steps
  /// of a one-time key and the ~200 of a verification; otherwise it is
  /// hash(). Equals hash() of the same 32 bytes.
  [[nodiscard]] static Sha256Digest hash32(const Sha256Digest& data) noexcept;

private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;  // bytes absorbed so far
};

}  // namespace idicn::crypto
