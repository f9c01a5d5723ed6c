// SHA-256 compression kernels behind crypto::Sha256 (internal to
// src/crypto/ and its tests).
//
// Sha256 picks one kernel the first time it hashes: the x86-64 SHA-NI kernel
// when CPUID reports the SHA extensions, the portable one otherwise. There
// is no switch; both are declared here only so tests can check the hardware
// kernel against the portable reference. Sha256::hash32 likewise runs the
// SHA-NI one-block kernel below when CPUID has it and Sha256::hash
// otherwise; tests check the kernel against Sha256::hash.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hpp"

namespace idicn::crypto::detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Compress `count` consecutive 64-byte blocks into `state`.
using Sha256Blocks = void (*)(Sha256State& state, const std::uint8_t* blocks,
                              std::size_t count) noexcept;

/// The FIPS 180-4 compression function in plain C++; runs on every CPU.
void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t count) noexcept;

/// The SHA-NI kernel, or nullptr when this CPU or target lacks it.
[[nodiscard]] Sha256Blocks sha256_blocks_hardware() noexcept;

/// SHA-256 of exactly 32 bytes: one block whose padding is constant.
using Sha256OneBlock = Sha256Digest (*)(const Sha256Digest& message) noexcept;

/// The SHA-NI one-block hash, or nullptr when this CPU or target lacks it.
[[nodiscard]] Sha256OneBlock sha256_32_hardware() noexcept;

}  // namespace idicn::crypto::detail
