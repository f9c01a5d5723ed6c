#include "crypto/sha256.hpp"

#include <cstring>

#include "crypto/sha256_blocks.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#include <cpuid.h>
#include <immintrin.h>
#define IDICN_HAVE_SHA_NI 1
#endif

namespace idicn::crypto {
namespace detail {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr Sha256State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) noexcept {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(Sha256State& state, const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w{};
  for (int i = 0; i < 16; ++i) {
    w[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(block[4 * i]) << 24) |
        (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
        (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
        static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef IDICN_HAVE_SHA_NI
#define IDICN_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

// Message words 8..15 of a padded 32-byte message (0x80, zeros, then the
// bit length 256), and the same words plus their round constants: the
// second half of a one-block hash of 32 bytes never changes.
alignas(16) constexpr std::array<std::uint32_t, 8> kPad32Words = {0x80000000, 0, 0, 0,
                                                                  0,          0, 0, 256};
alignas(16) constexpr std::array<std::uint32_t, 8> kPad32RoundInputs = [] {
  std::array<std::uint32_t, 8> sums{};
  for (std::size_t i = 0; i < sums.size(); ++i) {
    sums[i] = kPad32Words[i] + kRoundConstants[8 + i];
  }
  return sums;
}();

// The initial state in the (A,B,E,F) and (C,D,G,H) lanes below, low lane
// first.
alignas(16) constexpr std::array<std::uint32_t, 4> kInitialAbef = {
    kInitialState[5], kInitialState[4], kInitialState[1], kInitialState[0]};
alignas(16) constexpr std::array<std::uint32_t, 4> kInitialCdgh = {
    kInitialState[7], kInitialState[6], kInitialState[3], kInitialState[2]};

IDICN_SHA_NI_TARGET inline __m128i load_lanes(const std::uint32_t* words) noexcept {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(words));
}

// Four rounds on four message words already summed with their round
// constants. sha256rnds2 keeps the state as (A,B,E,F) and (C,D,G,H) lanes
// and runs two rounds per call on the low two words.
IDICN_SHA_NI_TARGET inline void rounds(__m128i& abef, __m128i& cdgh, __m128i wk) noexcept {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// Rounds 4g..4g+3.
IDICN_SHA_NI_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i words,
                                            int g) noexcept {
  const __m128i k = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * g));
  rounds(abef, cdgh, _mm_add_epi32(words, k));
}

IDICN_SHA_NI_TARGET inline __m128i byte_swap_words(__m128i words) noexcept {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(words, byte_swap);
}

// Four big-endian message words.
IDICN_SHA_NI_TARGET inline __m128i load_words(const std::uint8_t* bytes) noexcept {
  return byte_swap_words(_mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes)));
}

// W[t+16..t+19] from W[t..t+15], held four words each in a, b, c, d.
IDICN_SHA_NI_TARGET inline __m128i next_words(__m128i a, __m128i b, __m128i c,
                                              __m128i d) noexcept {
  const __m128i sum = _mm_add_epi32(_mm_sha256msg1_epu32(a, b), _mm_alignr_epi8(d, c, 4));
  return _mm_sha256msg2_epu32(sum, d);
}

// Rounds 16..63, extending the schedule from W[0..15] in w0..w3.
IDICN_SHA_NI_TARGET inline void scheduled_rounds(__m128i& abef, __m128i& cdgh, __m128i w0,
                                                 __m128i w1, __m128i w2,
                                                 __m128i w3) noexcept {
  for (int g = 4; g < 16; g += 4) {
    w0 = next_words(w0, w1, w2, w3);
    four_rounds(abef, cdgh, w0, g);
    w1 = next_words(w1, w2, w3, w0);
    four_rounds(abef, cdgh, w1, g + 1);
    w2 = next_words(w2, w3, w0, w1);
    four_rounds(abef, cdgh, w2, g + 2);
    w3 = next_words(w3, w0, w1, w2);
    four_rounds(abef, cdgh, w3, g + 3);
  }
}

// The (A,B,E,F)/(C,D,G,H) lanes back in memory order: A..D, then E..H.
IDICN_SHA_NI_TARGET inline void to_state_order(__m128i abef, __m128i cdgh, __m128i& dcba,
                                               __m128i& hgfe) noexcept {
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
}

IDICN_SHA_NI_TARGET void blocks_sha_ni(Sha256State& state, const std::uint8_t* blocks,
                                       std::size_t count) noexcept {
  // state[] is A..H in memory order; regroup it into the ABEF/CDGH lanes.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i w0 = load_words(blocks);
    const __m128i w1 = load_words(blocks + 16);
    const __m128i w2 = load_words(blocks + 32);
    const __m128i w3 = load_words(blocks + 48);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    scheduled_rounds(abef, cdgh, w0, w1, w2, w3);
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i out_dcba, out_hgfe;
  to_state_order(abef, cdgh, out_dcba, out_hgfe);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), out_dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), out_hgfe);
}

// One block from the initial state: the message fills words 0..7, the
// constant padding words 8..15 enter rounds 8..15 pre-summed with their
// round constants, and the digest leaves byte-swapped in two stores.
IDICN_SHA_NI_TARGET Sha256Digest hash32_sha_ni(const Sha256Digest& message) noexcept {
  const __m128i abef_in = load_lanes(kInitialAbef.data());
  const __m128i cdgh_in = load_lanes(kInitialCdgh.data());
  __m128i abef = abef_in;
  __m128i cdgh = cdgh_in;
  const __m128i w0 = load_words(message.data());
  const __m128i w1 = load_words(message.data() + 16);
  four_rounds(abef, cdgh, w0, 0);
  four_rounds(abef, cdgh, w1, 1);
  rounds(abef, cdgh, load_lanes(kPad32RoundInputs.data()));
  rounds(abef, cdgh, load_lanes(kPad32RoundInputs.data() + 4));
  scheduled_rounds(abef, cdgh, w0, w1, load_lanes(kPad32Words.data()),
                   load_lanes(kPad32Words.data() + 4));

  __m128i dcba, hgfe;
  to_state_order(_mm_add_epi32(abef, abef_in), _mm_add_epi32(cdgh, cdgh_in), dcba, hgfe);
  Sha256Digest out;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), byte_swap_words(dcba));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data() + 16), byte_swap_words(hgfe));
  return out;
}

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & bit_SSE4_1) != 0 && (ecx & bit_SSSE3) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return sse && (ebx & bit_SHA) != 0;
}
#endif

/// The kernel Sha256 runs, chosen by CPUID on first use.
Sha256Blocks selected_kernel() noexcept {
  static const Sha256Blocks kernel = [] {
    const Sha256Blocks hardware = sha256_blocks_hardware();
    return hardware != nullptr ? hardware : &sha256_blocks_portable;
  }();
  return kernel;
}

/// The one-block kernel Sha256::hash32 runs: the SHA-NI one, or else
/// the streaming hash.
Sha256OneBlock selected_one_block() noexcept {
  static const Sha256OneBlock kernel = [] {
    const Sha256OneBlock hardware = sha256_32_hardware();
    if (hardware != nullptr) return hardware;
    return Sha256OneBlock{[](const Sha256Digest& message) noexcept {
      return Sha256::hash(std::span<const std::uint8_t>(message));
    }};
  }();
  return kernel;
}

}  // namespace

void sha256_blocks_portable(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t count) noexcept {
  for (; count > 0; --count, blocks += 64) compress_portable(state, blocks);
}

Sha256Blocks sha256_blocks_hardware() noexcept {
#ifdef IDICN_HAVE_SHA_NI
  if (cpu_has_sha_ni()) return &blocks_sha_ni;
#endif
  return nullptr;
}

Sha256OneBlock sha256_32_hardware() noexcept {
#ifdef IDICN_HAVE_SHA_NI
  if (cpu_has_sha_ni()) return &hash32_sha_ni;
#endif
  return nullptr;
}

}  // namespace detail

void Sha256::reset() noexcept {
  state_ = detail::kInitialState;
  buffer_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;
  total_len_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, in, take);
    buffer_len_ += take;
    in += take;
    left -= take;
    if (buffer_len_ < buffer_.size()) return;
    detail::selected_kernel()(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (left >= 64) {
    detail::selected_kernel()(state_, in, left / 64);
    in += left / 64 * 64;
    left %= 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), in, left);
    buffer_len_ = left;
  }
}

void Sha256::update(std::string_view data) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() noexcept {
  // The buffered tail, 0x80, zeros, then the 64-bit big-endian bit length:
  // one block, or two when the tail leaves no room for the length.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffer_len_);
  tail[buffer_len_] = 0x80;
  const std::size_t tail_len = buffer_len_ < 56 ? 64 : 128;
  const std::uint64_t bit_len = total_len_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  detail::selected_kernel()(state_, tail.data(), tail_len / 64);

  Sha256Digest out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state_[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Sha256Digest Sha256::hash(std::span<const std::uint8_t> data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash(std::string_view data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Sha256Digest Sha256::hash32(const Sha256Digest& data) noexcept {
  return detail::selected_one_block()(data);
}

}  // namespace idicn::crypto
