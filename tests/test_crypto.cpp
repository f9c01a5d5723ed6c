// Crypto substrate tests: SHA-256 against FIPS vectors (both compression
// kernels, and the one-block hash32 against the streaming hash),
// hex/base32 codecs, Winternitz one-time and Merkle signatures incl.
// forgery, tamper and malformed-encoding rejection.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "crypto/base32.hpp"
#include "crypto/hex.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_blocks.hpp"

namespace {

using namespace idicn::crypto;

std::string hex_of(const Sha256Digest& digest) {
  return hex_encode(std::span<const std::uint8_t>(digest));
}

// --- SHA-256 (FIPS 180-4 / NIST test vectors) ------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string message(64, 'x');
  EXPECT_EQ(Sha256::hash(message), Sha256::hash(message));
  EXPECT_NE(hex_of(Sha256::hash(message)), hex_of(Sha256::hash(std::string(63, 'x'))));
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly and at length.";
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha256 h;
    h.update(std::string_view(message).substr(0, split));
    h.update(std::string_view(message).substr(split));
    EXPECT_EQ(h.finish(), Sha256::hash(message)) << "split=" << split;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update("first");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(hex_of(h.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, ByteAtATimeMatchesOneShot) {
  const std::size_t length = GetParam();
  std::string message(length, '\0');
  for (std::size_t i = 0; i < length; ++i) {
    message[i] = static_cast<char>(i * 131 + 7);
  }
  Sha256 h;
  for (const char c : message) h.update(std::string_view(&c, 1));
  EXPECT_EQ(h.finish(), Sha256::hash(message));
}

INSTANTIATE_TEST_SUITE_P(PaddingBoundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119, 120,
                                           127, 128, 129, 1000));

std::string seeded_message(std::size_t length, std::mt19937_64& rng) {
  std::string message(length, '\0');
  for (char& c : message) c = static_cast<char>(rng());
  return message;
}

TEST(Sha256, SplitUpdatesMatchOneShotAtEveryLength) {
  std::mt19937_64 rng(2024);
  for (std::size_t length = 0; length <= 300; ++length) {
    const std::string message = seeded_message(length, rng);
    std::array<std::size_t, 3> cuts{};
    for (std::size_t& cut : cuts) cut = length == 0 ? 0 : rng() % (length + 1);
    std::sort(cuts.begin(), cuts.end());
    Sha256 h;
    std::size_t from = 0;
    for (const std::size_t cut : cuts) {
      h.update(std::string_view(message).substr(from, cut - from));
      from = cut;
    }
    h.update(std::string_view(message).substr(from));
    EXPECT_EQ(h.finish(), Sha256::hash(message)) << "length=" << length;
  }
}

// --- SHA-256 compression kernels ----------------------------------------------

using detail::Sha256Blocks;
using detail::Sha256State;

constexpr Sha256State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Digest of `message` through one kernel, padded here rather than by
// Sha256::finish so the kernels are checked independently of the class.
std::string kernel_hex(Sha256Blocks kernel, std::string_view message) {
  std::vector<std::uint8_t> padded(message.begin(), message.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = message.size() * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
  Sha256State state = kInitialState;
  kernel(state, padded.data(), padded.size() / 64);
  Sha256Digest digest{};
  for (std::size_t i = 0; i < 32; ++i) {
    digest[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return hex_of(digest);
}

void expect_fips_vectors(Sha256Blocks kernel) {
  EXPECT_EQ(kernel_hex(kernel, ""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(kernel_hex(kernel, "abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(kernel_hex(kernel, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(kernel_hex(kernel, std::string(1000000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Kernels, PortableMatchesFipsVectors) {
  expect_fips_vectors(&detail::sha256_blocks_portable);
  // Sha256 runs whichever kernel CPUID selected; it must agree with the
  // portable one on every padding layout.
  std::mt19937_64 rng(7);
  for (std::size_t length = 0; length <= 300; ++length) {
    const std::string message = seeded_message(length, rng);
    EXPECT_EQ(kernel_hex(&detail::sha256_blocks_portable, message),
              hex_of(Sha256::hash(message)))
        << "length=" << length;
  }
}

TEST(Sha256Kernels, HardwareMatchesFipsVectors) {
  const Sha256Blocks hardware = detail::sha256_blocks_hardware();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_fips_vectors(hardware);
}

TEST(Sha256Kernels, HardwareMatchesPortableOnRandomBlocks) {
  const Sha256Blocks hardware = detail::sha256_blocks_hardware();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t blocks = 1 + rng() % 17;
    std::vector<std::uint8_t> data(blocks * 64);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    Sha256State portable{};
    for (auto& word : portable) word = static_cast<std::uint32_t>(rng());
    Sha256State accelerated = portable;
    detail::sha256_blocks_portable(portable, data.data(), blocks);
    hardware(accelerated, data.data(), blocks);
    EXPECT_EQ(accelerated, portable) << "trial=" << trial << " blocks=" << blocks;
  }
}

// The one-block hash of 32 seeded bytes against Sha256::hash of the same
// bytes, which pads and streams them.
void expect_one_block_matches_streaming(detail::Sha256OneBlock one_block) {
  std::mt19937_64 rng(32);
  for (int trial = 0; trial < 10'000; ++trial) {
    Sha256Digest input{};
    for (auto& byte : input) byte = static_cast<std::uint8_t>(rng());
    ASSERT_EQ(one_block(input), Sha256::hash(std::span<const std::uint8_t>(input)))
        << "trial=" << trial;
  }
}

TEST(Sha256Kernels, SelectedOneBlockMatchesStreaming) {
  // Sha256::hash32 runs whichever one-block kernel CPUID selected.
  expect_one_block_matches_streaming(&Sha256::hash32);
}

TEST(Sha256Kernels, HardwareOneBlockMatchesStreaming) {
  const detail::Sha256OneBlock hardware = detail::sha256_32_hardware();
  if (hardware == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_one_block_matches_streaming(hardware);
}

// --- hex ---------------------------------------------------------------

TEST(Hex, EncodeDecodeRoundtrip) {
  std::mt19937_64 rng(42);
  for (std::size_t length = 0; length < 100; ++length) {
    std::vector<std::uint8_t> data(length);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    const std::string encoded = hex_encode(data);
    EXPECT_EQ(encoded.size(), length * 2);
    std::vector<std::uint8_t> decoded(length);
    ASSERT_TRUE(hex_decode(encoded, decoded));
    EXPECT_EQ(decoded, data);
  }
}

TEST(Hex, DecodeRejectsOddLength) {
  std::array<std::uint8_t, 2> out{};
  EXPECT_FALSE(hex_decode("abc", std::span(out).first(1)));
  EXPECT_FALSE(hex_decode("abc", out));
  // The decoder fills exactly the buffer it is given, no more, no less.
  EXPECT_FALSE(hex_decode("abcdef", out));
  EXPECT_FALSE(hex_decode("ab", out));
}

TEST(Hex, DecodeRejectsNonHex) {
  std::array<std::uint8_t, 1> out{};
  EXPECT_FALSE(hex_decode("zz", out));
  EXPECT_FALSE(hex_decode("0g", out));
  // Bytes >= 0x80 are negative as signed char; 0xb0 and 0xe6 also alias
  // '0' and 'f' in their low seven bits.
  EXPECT_FALSE(hex_decode("\xb0" "0", out));
  EXPECT_FALSE(hex_decode("0\xe6", out));
  EXPECT_FALSE(hex_decode("\xff\xff", out));
}

TEST(Hex, DecodeAcceptsUppercase) {
  std::array<std::uint8_t, 4> decoded{};
  ASSERT_TRUE(hex_decode("DEADBEEF", decoded));
  EXPECT_EQ(hex_encode(decoded), "deadbeef");
}

// --- base32 --------------------------------------------------------------

TEST(Base32, Rfc4648Vectors) {
  const auto bytes = [](std::string_view s) {
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };
  EXPECT_EQ(base32_encode(bytes("")), "");
  EXPECT_EQ(base32_encode(bytes("f")), "my");
  EXPECT_EQ(base32_encode(bytes("fo")), "mzxq");
  EXPECT_EQ(base32_encode(bytes("foo")), "mzxw6");
  EXPECT_EQ(base32_encode(bytes("foob")), "mzxw6yq");
  EXPECT_EQ(base32_encode(bytes("fooba")), "mzxw6ytb");
  EXPECT_EQ(base32_encode(bytes("foobar")), "mzxw6ytboi");
}

TEST(Base32, Sha256DigestIsDnsLabelSized) {
  // The whole point (paper footnote): a 32-byte digest must fit in a
  // 63-char DNS label; hex (64 chars) does not, base32 (52) does.
  const Sha256Digest digest = Sha256::hash("anything");
  const std::string encoded = base32_encode(std::span<const std::uint8_t>(digest));
  EXPECT_EQ(encoded.size(), 52u);
  EXPECT_LE(encoded.size(), 63u);
}

class Base32Roundtrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base32Roundtrip, EncodeDecode) {
  std::mt19937_64 rng(GetParam() * 977 + 3);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const auto decoded = base32_decode(base32_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, Base32Roundtrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 31, 32, 33, 64));

TEST(Base32, DecodeRejectsInvalid) {
  EXPECT_FALSE(base32_decode("a").has_value());    // impossible length
  EXPECT_FALSE(base32_decode("a1").has_value());   // '1' not in alphabet
  EXPECT_FALSE(base32_decode("a!").has_value());
  // Nonzero trailing padding bits.
  EXPECT_FALSE(base32_decode("mz").has_value() && base32_decode("mz")->size() == 2);
}

TEST(Base32, DecodeAcceptsUppercase) {
  const auto decoded = base32_decode("MZXW6YTBOI");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::string(decoded->begin(), decoded->end()), "foobar");
}

// --- Winternitz one-time signatures (w = 4) --------------------------------
//
// A height-0 signer is a single W-OTS key: its root is the leaf, the hash
// of the key's 133 chain ends, and its signatures carry no auth path.

Sha256Digest random_digest(std::mt19937_64& rng) {
  Sha256Digest digest{};
  for (std::uint8_t& byte : digest) byte = static_cast<std::uint8_t>(rng());
  return digest;
}

/// `digest` with its message digit `i` (two bits, MSB first) set to `value`.
Sha256Digest with_digit(Sha256Digest digest, std::size_t i, unsigned value) {
  const unsigned shift = 6 - 2 * (i % 4);
  digest[i / 4] = static_cast<std::uint8_t>((digest[i / 4] & ~(3u << shift)) |
                                            (value << shift));
  return digest;
}

/// Whether no digit of `a` is below the matching digit of `b`: a forger
/// could then hash a signature over `b`'s digits forward into one over
/// `a`'s.
bool dominates(const WotsDigits& a, const WotsDigits& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

TEST(Wots, SignVerify) {
  MerkleSigner signer(7, 0);
  const MerkleSignature sig = signer.sign("hello idicn");
  EXPECT_TRUE(sig.auth_path.empty());
  EXPECT_TRUE(MerkleSigner::verify(signer.root(), "hello idicn", sig));
}

TEST(Wots, RejectsWrongMessage) {
  MerkleSigner signer(7, 0);
  const MerkleSignature sig = signer.sign("hello idicn");
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "hello idicn!", sig));
}

TEST(Wots, RejectsWrongRoot) {
  MerkleSigner signer(7, 0);
  const MerkleSigner other(8, 0);
  const MerkleSignature sig = signer.sign("msg");
  EXPECT_FALSE(MerkleSigner::verify(other.root(), "msg", sig));
}

TEST(Wots, RejectsTamperedChainValue) {
  MerkleSigner signer(9, 0);
  const MerkleSignature sig = signer.sign("msg");
  ASSERT_TRUE(MerkleSigner::verify(signer.root(), "msg", sig));
  // A message chain and a checksum chain.
  for (const std::size_t chain : {std::size_t{17}, kWotsChains - 1}) {
    MerkleSignature tampered = sig;
    tampered.chains[chain][5] ^= 0x01;
    EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", tampered)) << chain;
  }
}

TEST(Wots, KeygenIsDeterministic) {
  EXPECT_EQ(MerkleSigner(123, 0).root(), MerkleSigner(123, 0).root());
  EXPECT_NE(MerkleSigner(123, 0).root(), MerkleSigner(124, 0).root());
  // The signer stores no secrets; sign() regenerates the same ones.
  MerkleSigner signer(123, 2);
  MerkleSigner twin(123, 2);
  EXPECT_EQ(signer.sign("msg"), twin.sign("msg"));
}

TEST(Wots, DigitsReadTheDigestThenItsChecksum) {
  // All-zero digest: 128 zero digits, checksum 128 × 3 = 384 = 12000 in base 4.
  const WotsDigits zeros = wots_digits(Sha256Digest{});
  for (std::size_t i = 0; i < kWotsMessageDigits; ++i) ASSERT_EQ(zeros[i], 0) << i;
  EXPECT_EQ(std::vector<int>(zeros.begin() + kWotsMessageDigits, zeros.end()),
            (std::vector<int>{1, 2, 0, 0, 0}));

  // All-ones digest: every digit at the top, so the checksum is 0.
  Sha256Digest ones{};
  ones.fill(0xff);
  const WotsDigits tops = wots_digits(ones);
  EXPECT_TRUE(std::all_of(tops.begin(), tops.begin() + kWotsMessageDigits,
                          [](std::uint8_t digit) { return digit == kWotsW - 1; }));
  EXPECT_TRUE(std::all_of(tops.begin() + kWotsMessageDigits, tops.end(),
                          [](std::uint8_t digit) { return digit == 0; }));

  // Two bits per digit, most significant first: 0x1b = 00 01 10 11.
  Sha256Digest ramp{};
  ramp[0] = 0x1b;
  const WotsDigits ramp_digits = wots_digits(ramp);
  EXPECT_EQ(std::vector<int>(ramp_digits.begin(), ramp_digits.begin() + 4),
            (std::vector<int>{0, 1, 2, 3}));
}

// The checksum is what stops a forger who holds one signature from hashing
// its chains forward into a signature over another message.
TEST(Wots, RaisingAMessageDigitLowersAChecksumDigit) {
  std::mt19937_64 rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const Sha256Digest digest = random_digest(rng);
    const WotsDigits digits = wots_digits(digest);
    for (std::size_t i = 0; i < kWotsMessageDigits; ++i) {
      for (unsigned raised = digits[i] + 1u; raised < kWotsW; ++raised) {
        const WotsDigits forged = wots_digits(with_digit(digest, i, raised));
        ASSERT_EQ(forged[i], raised);
        bool lowered = false;
        for (std::size_t c = kWotsMessageDigits; c < kWotsChains; ++c) {
          lowered = lowered || forged[c] < digits[c];
        }
        ASSERT_TRUE(lowered) << "trial " << trial << ", digit " << i;
      }
    }
  }
}

TEST(Wots, NoDigitVectorDominatesAnother) {
  std::mt19937_64 rng(22);
  for (int trial = 0; trial < 10'000; ++trial) {
    const Sha256Digest digest = random_digest(rng);
    const WotsDigits digits = wots_digits(digest);
    const WotsDigits other = wots_digits(random_digest(rng));
    ASSERT_FALSE(dominates(digits, other)) << trial;
    ASSERT_FALSE(dominates(other, digits)) << trial;

    // A digest whose message digits all sit at or above these: without
    // the checksum its signature would follow by hashing forward.
    Sha256Digest raised = digest;
    for (int k = 0; k < 1 + trial % 8; ++k) {
      const std::size_t i = rng() % kWotsMessageDigits;
      raised = with_digit(raised, i, std::max<unsigned>(wots_digits(raised)[i],
                                                        1u + rng() % (kWotsW - 1)));
    }
    if (raised == digest) continue;
    ASSERT_FALSE(dominates(wots_digits(raised), digits)) << trial;
  }
}

TEST(Wots, RaisedChainWithoutLoweredChecksumIsRejected) {
  MerkleSigner signer(10, 0);
  const MerkleSignature sig = signer.sign("msg");
  const WotsDigits digits = wots_digits(Sha256::hash("msg"));
  std::size_t raised_chains = 0;
  for (std::size_t i = 0; i < kWotsMessageDigits; ++i) {
    if (digits[i] == kWotsW - 1) continue;
    MerkleSignature forged = sig;
    forged.chains[i] = Sha256::hash32(forged.chains[i]);
    EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", forged)) << i;
    ++raised_chains;
  }
  EXPECT_GT(raised_chains, 0u);
}

// --- Merkle signature scheme ------------------------------------------------

TEST(Merkle, SignVerifyManyMessages) {
  MerkleSigner signer(11, 3);  // 8 one-time keys
  EXPECT_EQ(signer.capacity(), 8u);
  for (int i = 0; i < 8; ++i) {
    const std::string message = "object-" + std::to_string(i);
    const MerkleSignature sig = signer.sign(message);
    EXPECT_TRUE(MerkleSigner::verify(signer.root(), message, sig)) << i;
  }
  EXPECT_EQ(signer.remaining(), 0u);
}

TEST(Merkle, ExhaustionThrows) {
  MerkleSigner signer(12, 1);  // 2 keys
  (void)signer.sign("a");
  (void)signer.sign("b");
  EXPECT_THROW((void)signer.sign("c"), std::runtime_error);
  EXPECT_THROW((void)signer.sign("d"), std::runtime_error);
  EXPECT_EQ(signer.remaining(), 0u);
}

TEST(Merkle, ConcurrentSignsClaimDistinctLeaves) {
  constexpr unsigned kThreads = 8;
  constexpr int kLateCalls = 3;
  MerkleSigner signer(20, 10);  // 1024 one-time keys
  struct Signed {
    std::string message;
    MerkleSignature sig;
  };
  std::vector<std::vector<Signed>> signed_by(kThreads);
  std::vector<int> refusals(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&signer, &signed_by, &refusals, &start, t] {
      start.arrive_and_wait();
      for (int n = 0;; ++n) {
        std::string message =
            "thread " + std::to_string(t) + ", message " + std::to_string(n);
        try {
          MerkleSignature sig = signer.sign(message);
          signed_by[t].push_back({std::move(message), std::move(sig)});
        } catch (const std::runtime_error&) {
          ++refusals[t];
          break;
        }
      }
      // Every call past exhaustion throws, not only the first.
      for (int late = 0; late < kLateCalls; ++late) {
        try {
          (void)signer.sign("late");
        } catch (const std::runtime_error&) {
          ++refusals[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(signer.remaining(), 0u);
  std::vector<int> uses(signer.capacity(), 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(refusals[t], 1 + kLateCalls) << "thread " << t;
    for (const Signed& entry : signed_by[t]) {
      ASSERT_LT(entry.sig.leaf_index, signer.capacity());
      ++uses[entry.sig.leaf_index];
      EXPECT_TRUE(MerkleSigner::verify(signer.root(), entry.message, entry.sig))
          << entry.message;
    }
  }
  for (std::size_t leaf = 0; leaf < uses.size(); ++leaf) {
    EXPECT_EQ(uses[leaf], 1) << "leaf " << leaf;
  }
}

TEST(Merkle, RejectsWrongRoot) {
  MerkleSigner signer(13, 2);
  MerkleSigner other(14, 2);
  const MerkleSignature sig = signer.sign("msg");
  EXPECT_FALSE(MerkleSigner::verify(other.root(), "msg", sig));
}

TEST(Merkle, RejectsWrongMessage) {
  MerkleSigner signer(15, 2);
  const MerkleSignature sig = signer.sign("msg");
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "other", sig));
}

TEST(Merkle, RejectsTamperedAuthPath) {
  MerkleSigner signer(16, 3);
  MerkleSignature sig = signer.sign("msg");
  sig.auth_path[1][0] ^= 0x80;
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, RejectsLeafIndexSubstitution) {
  MerkleSigner signer(17, 3);
  MerkleSignature sig = signer.sign("msg");
  sig.leaf_index ^= 1;  // claim the sibling leaf signed it
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
  // An index past the tree walks the same path as its low bits; it is
  // still not the leaf that signed.
  sig.leaf_index ^= 1;
  ASSERT_TRUE(MerkleSigner::verify(signer.root(), "msg", sig));
  sig.leaf_index += 1u << 3;
  EXPECT_FALSE(MerkleSigner::verify(signer.root(), "msg", sig));
}

TEST(Merkle, EncodeDecodeRoundtrip) {
  MerkleSigner signer(18, 3);
  const MerkleSignature sig = signer.sign("roundtrip me");
  const auto decoded = MerkleSignature::decode(sig.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
  EXPECT_TRUE(MerkleSigner::verify(signer.root(), "roundtrip me", *decoded));
}

TEST(Merkle, DecodeRejectsGarbage) {
  EXPECT_FALSE(MerkleSignature::decode("").has_value());
  EXPECT_FALSE(MerkleSignature::decode("notasig").has_value());
  EXPECT_FALSE(MerkleSignature::decode("1:abcd:ef01:").has_value());
  MerkleSigner signer(19, 1);
  std::string encoded = signer.sign("x").encode();
  encoded[0] = 'x';  // corrupt the index field
  EXPECT_FALSE(MerkleSignature::decode(encoded).has_value());

  const std::string leaf1 = signer.sign("y").encode();
  ASSERT_EQ(leaf1.substr(0, 2), "1:");
  const std::string fields = leaf1.substr(1);  // ":<chain values>:<path>"
  ASSERT_TRUE(MerkleSignature::decode(leaf1).has_value());

  // The index must not wrap: 2^32 + 1 is not leaf 1, and more than ten
  // digits is refused even when the value would fit.
  EXPECT_FALSE(MerkleSignature::decode("4294967297" + fields).has_value());
  EXPECT_FALSE(MerkleSignature::decode("4294967296" + fields).has_value());
  EXPECT_FALSE(MerkleSignature::decode("00000000001" + fields).has_value());
  const auto max_index = MerkleSignature::decode("4294967295" + fields);
  ASSERT_TRUE(max_index.has_value());
  EXPECT_EQ(max_index->leaf_index, 4294967295u);

  // The chain values: 133 × 32 bytes of hex, then ':'. One hex pair short
  // or long at either end of the field, or no ':' after it, is refused.
  const std::size_t chains_start = 2;
  const std::size_t chains_end = leaf1.find(':', chains_start);
  EXPECT_EQ(chains_end - chains_start, 2u * kWotsChains * 32);
  for (const std::size_t at : {chains_start, chains_end - 2}) {
    std::string shorter = leaf1;
    shorter.erase(at, 2);
    EXPECT_FALSE(MerkleSignature::decode(shorter).has_value()) << "at=" << at;
    std::string longer = leaf1;
    longer.insert(at, "00");
    EXPECT_FALSE(MerkleSignature::decode(longer).has_value()) << "at=" << at;
  }
  EXPECT_FALSE(MerkleSignature::decode(leaf1.substr(0, chains_end)).has_value());

  // A byte >= 0x80 inside a hex field (a table indexed by signed char
  // would read before its start; 0xb0 also aliases '0' in seven bits).
  for (const std::size_t at : {chains_start + 7, chains_end - 1, chains_end + 3}) {
    std::string high = leaf1;
    high[at] = '\xb0';
    EXPECT_FALSE(MerkleSignature::decode(high).has_value()) << "at=" << at;
  }

  // The auth path: 64 hex digits per node, no trailing separator.
  EXPECT_FALSE(MerkleSignature::decode(leaf1 + ",").has_value());
  EXPECT_FALSE(MerkleSignature::decode(leaf1.substr(0, leaf1.size() - 2)).has_value());
}

// Pins the scheme end to end: the key derivation, the chain and leaf
// hashing, the digit order and the encoding. Any change to them changes
// every signed name and proof on the wire. The values were cross-checked
// against a separate implementation on Python's hashlib.
TEST(Merkle, KnownAnswer) {
  MerkleSigner signer(2013, 3);
  EXPECT_EQ(hex_of(signer.root()),
            "f588c2853760d80f848d65757032f779c8a42bdf584bdaf4ed8a07f0505fcc5a");
  const std::string encoded = signer.sign("idicn known answer").encode();
  // "0:", 133 × 64 hex digits, ':', 3 × 64 hex digits and 2 commas.
  EXPECT_EQ(encoded.size(), 8709u);
  EXPECT_EQ(hex_of(Sha256::hash(encoded)),
            "f6d3c05116877fdcfa4283708455e57d9b64e5325ded36032fd119e80b473498");
}

TEST(Merkle, DistinctSignersHaveDistinctRoots) {
  EXPECT_NE(MerkleSigner(1, 2).root(), MerkleSigner(2, 2).root());
  EXPECT_EQ(MerkleSigner(3, 2).root(), MerkleSigner(3, 2).root());
}

}  // namespace
