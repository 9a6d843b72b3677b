// SHA-256 against FIPS 180-4 / NIST test vectors, plus the hashing helpers.
// Each compress function is also run directly and the SHA-NI one is
// cross-checked against the portable reference; the SHA-NI cases skip on a
// CPU without it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dlt::crypto {
namespace {

std::string digest_hex(std::string_view msg) {
  return to_hex(Sha256::digest(as_bytes(msg)));
}

// The SHA-NI compress, or nullptr when this build or CPU lacks it.
Sha256Compress shani_compress() {
#ifdef DLT_SHA256_SHANI
  if (sha256_shani_supported()) return sha256_compress_shani;
#endif
  return nullptr;
}

// SHA-256 of `msg` through one compress function, with the FIPS 180-4
// §5.1.1 padding written out here rather than taken from Sha256.
Hash256 digest_with(Sha256Compress compress, ByteView msg) {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = 8 * static_cast<std::uint64_t>(msg.size());
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<Byte>(bits >> (8 * i)));
  compress(h, padded.data(), padded.size() / 64);
  Hash256 out;
  for (std::size_t i = 0; i < 32; ++i)
    out.v[i] = static_cast<Byte>(h[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (Byte& b : out) b = static_cast<Byte>(rng.next());
  return out;
}

// Every length a one- or two-block tail can take, then multi-block
// messages up to 64 KiB.
std::vector<std::size_t> message_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (std::size_t n : {1000, 4096 + 17, 65536}) lengths.push_back(n);
  return lengths;
}

struct Vector {
  std::string msg;
  std::string_view hex;
};

// The vectors of the Sha256 tests below, for the compress functions.
std::vector<Vector> fips_vectors() {
  return {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

void expect_fips_vectors(Sha256Compress compress) {
  for (const Vector& v : fips_vectors())
    EXPECT_EQ(to_hex(digest_with(compress, as_bytes(v.msg))), v.hex)
        << v.msg.size() << "-byte message";
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: padding spills into a second block.
  const std::string msg(64, 'a');
  EXPECT_EQ(digest_hex(msg),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(Sha256, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: the largest message whose padding fits one block.
  EXPECT_EQ(digest_hex(std::string(55, 'a')),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(digest_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(as_bytes(chunk));
  EXPECT_EQ(to_hex(ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingEqualsOneShot) {
  const std::string msg =
      "the quick brown fox jumps over the lazy dog and keeps going";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(as_bytes(std::string_view(msg).substr(0, split)));
    ctx.update(as_bytes(std::string_view(msg).substr(split)));
    EXPECT_EQ(ctx.finalize(), Sha256::digest(as_bytes(msg))) << split;
  }
}

TEST(Sha256Compress, PortableMatchesFipsVectors) {
  expect_fips_vectors(sha256_compress_portable);
}

TEST(Sha256Compress, ShaNiMatchesFipsVectors) {
  const Sha256Compress shani = shani_compress();
  if (!shani) GTEST_SKIP() << "CPU lacks SHA-NI";
  expect_fips_vectors(shani);
}

TEST(Sha256Compress, DispatchPicksShaNiExactlyWhenSupported) {
  const Sha256Compress shani = shani_compress();
  EXPECT_EQ(sha256_compress(), shani ? shani : sha256_compress_portable);
}

TEST(Sha256Compress, ShaNiMatchesPortableFromRandomStates) {
  const Sha256Compress shani = shani_compress();
  if (!shani) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(17);
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i)
      a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
    const Bytes data = random_bytes(rng, 64 * blocks);
    sha256_compress_portable(a, data.data(), blocks);
    shani(b, data.data(), blocks);
    EXPECT_TRUE(std::equal(a, a + 8, b)) << blocks << " blocks";
  }
}

TEST(Sha256Compress, ShaNiMatchesPortableAtEveryLength) {
  const Sha256Compress shani = shani_compress();
  if (!shani) GTEST_SKIP() << "CPU lacks SHA-NI";
  Rng rng(23);
  for (std::size_t n : message_lengths()) {
    const Bytes msg = random_bytes(rng, n);
    EXPECT_EQ(digest_with(shani, msg),
              digest_with(sha256_compress_portable, msg))
        << n << " bytes";
  }
}

// Sha256 runs the dispatched compress (SHA-NI on a CPU that has it), so
// these compare the streaming class against the portable reference.
TEST(Sha256, OneShotMatchesPortableReferenceAtEveryLength) {
  Rng rng(29);
  for (std::size_t n : message_lengths()) {
    const Bytes msg = random_bytes(rng, n);
    EXPECT_EQ(Sha256::digest(msg), digest_with(sha256_compress_portable, msg))
        << n << " bytes";
  }
}

TEST(Sha256, RandomSplitsAndMidstateResumeMatchPortableReference) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.uniform(trial < 150 ? 300 : 5000);
    const Bytes msg = random_bytes(rng, n);
    const Hash256 expected = digest_with(sha256_compress_portable, msg);
    const ByteView view(msg);

    std::vector<std::size_t> cuts = {0, n};
    for (std::uint64_t k = rng.uniform(5); k > 0; --k)
      cuts.push_back(rng.uniform(n + 1));
    std::sort(cuts.begin(), cuts.end());
    Sha256 streamed;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
      streamed.update(view.subspan(cuts[i], cuts[i + 1] - cuts[i]));
    EXPECT_EQ(streamed.finalize(), expected) << n << " bytes, trial " << trial;

    const std::size_t at = rng.uniform(n + 1);
    Sha256 prefix;
    prefix.update(view.first(at));
    Sha256 resumed = Sha256::from_midstate(prefix.midstate());
    resumed.update(view.subspan(at));
    EXPECT_EQ(resumed.finalize(), expected) << n << " bytes, resumed at " << at;
  }
}

TEST(Sha256, DoubleHashDiffersFromSingle) {
  const Hash256 once = Sha256::digest(as_bytes("abc"));
  const Hash256 twice = sha256d(as_bytes("abc"));
  EXPECT_NE(once, twice);
  EXPECT_EQ(twice, Sha256::digest(once.view()));
}

TEST(TaggedHash, DomainSeparation) {
  const Hash256 a = tagged_hash("domain-a", as_bytes("payload"));
  const Hash256 b = tagged_hash("domain-b", as_bytes("payload"));
  EXPECT_NE(a, b);
  // Deterministic.
  EXPECT_EQ(a, tagged_hash("domain-a", as_bytes("payload")));
}

TEST(TaggedHash, LongTagMatchesDefinitionAsLiteralOrString) {
  // Longer than the 15-byte small-string buffer, and used nowhere else, so
  // the literal call builds the memoized midstate and the std::string call
  // finds it.
  constexpr std::string_view kTag = "dlt/test-long-tag-name";
  const std::string runtime_tag = std::string("dlt/test-") + "long-tag-name";
  const Bytes data = {0x01, 0x02, 0x03, 0xfe};

  const Hash256 tag_digest = Sha256::digest(as_bytes(kTag));
  Bytes preimage = tag_digest.bytes();
  preimage.insert(preimage.end(), tag_digest.v.begin(), tag_digest.v.end());
  preimage.insert(preimage.end(), data.begin(), data.end());
  const Hash256 expected = Sha256::digest(preimage);

  EXPECT_EQ(tagged_hash("dlt/test-long-tag-name", data), expected);
  EXPECT_EQ(tagged_hash(runtime_tag, data), expected);
  EXPECT_EQ(tagged_hash(kTag, data), expected);
}

TEST(TaggedHash, CombineOrderMatters) {
  Hash256 l = Sha256::digest(as_bytes("l"));
  Hash256 r = Sha256::digest(as_bytes("r"));
  EXPECT_NE(combine("t", l, r), combine("t", r, l));
}

TEST(HashHelpers, PrefixU64BigEndian) {
  Hash256 h;
  h.v[0] = 0x01;
  h.v[7] = 0xff;
  EXPECT_EQ(hash_prefix_u64(h), 0x01000000000000ffULL);
}

TEST(HashHelpers, LeadingZeroBits) {
  Hash256 h;  // all zero
  EXPECT_EQ(leading_zero_bits(h), 256);
  h.v[0] = 0x80;
  EXPECT_EQ(leading_zero_bits(h), 0);
  h.v[0] = 0x01;
  EXPECT_EQ(leading_zero_bits(h), 7);
  h.v[0] = 0x00;
  h.v[1] = 0x10;
  EXPECT_EQ(leading_zero_bits(h), 11);
}

}  // namespace
}  // namespace dlt::crypto
