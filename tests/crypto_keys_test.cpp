// Signatures (Schnorr, toy group) and hashcash PoW (paper §III).
#include <gtest/gtest.h>

#include <vector>

#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"

namespace dlt::crypto {
namespace {

TEST(Keys, SignVerifyRoundTrip) {
  Rng rng(1);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("transfer 100 to bob");
  const Signature sig = kp.sign(ByteView{msg.data(), msg.size()}, rng);
  EXPECT_TRUE(verify(kp.public_key(), ByteView{msg.data(), msg.size()}, sig));
}

TEST(Keys, WrongMessageRejected) {
  Rng rng(2);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("pay alice");
  const Bytes other = to_bytes("pay mallory");
  const Signature sig = kp.sign(ByteView{msg.data(), msg.size()}, rng);
  EXPECT_FALSE(
      verify(kp.public_key(), ByteView{other.data(), other.size()}, sig));
}

TEST(Keys, WrongKeyRejected) {
  Rng rng(3);
  KeyPair alice = KeyPair::generate(rng);
  KeyPair bob = KeyPair::generate(rng);
  const Bytes msg = to_bytes("hello");
  const Signature sig = alice.sign(ByteView{msg.data(), msg.size()}, rng);
  EXPECT_FALSE(verify(bob.public_key(), ByteView{msg.data(), msg.size()}, sig));
}

TEST(Keys, TamperedSignatureRejected) {
  Rng rng(4);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("x");
  Signature sig = kp.sign(ByteView{msg.data(), msg.size()}, rng);
  sig.s ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), ByteView{msg.data(), msg.size()}, sig));
  sig.s ^= 1;
  sig.r ^= 1;
  EXPECT_FALSE(verify(kp.public_key(), ByteView{msg.data(), msg.size()}, sig));
}

TEST(Keys, DegenerateSignatureValuesRejected) {
  Rng rng(5);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("x");
  EXPECT_FALSE(verify(kp.public_key(), ByteView{msg.data(), msg.size()},
                      Signature{0, 0}));
  EXPECT_FALSE(verify(0, ByteView{msg.data(), msg.size()}, Signature{1, 1}));
}

TEST(Keys, DeterministicFromSeed) {
  KeyPair a = KeyPair::from_seed(77);
  KeyPair b = KeyPair::from_seed(77);
  KeyPair c = KeyPair::from_seed(78);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_EQ(a.account_id(), b.account_id());
  EXPECT_NE(a.public_key(), c.public_key());
}

TEST(Keys, AccountIdBindsPubkey) {
  KeyPair kp = KeyPair::from_seed(9);
  EXPECT_EQ(kp.account_id(), account_of(kp.public_key()));
  EXPECT_NE(kp.account_id(), account_of(kp.public_key() + 1));
}

TEST(Keys, SignaturesRandomized) {
  // Fresh nonce per signature: same message, different signatures, both
  // valid.
  Rng rng(6);
  KeyPair kp = KeyPair::generate(rng);
  const Bytes msg = to_bytes("m");
  const Signature s1 = kp.sign(ByteView{msg.data(), msg.size()}, rng);
  const Signature s2 = kp.sign(ByteView{msg.data(), msg.size()}, rng);
  EXPECT_NE(s1, s2);
  EXPECT_TRUE(verify(kp.public_key(), ByteView{msg.data(), msg.size()}, s1));
  EXPECT_TRUE(verify(kp.public_key(), ByteView{msg.data(), msg.size()}, s2));
}

TEST(Hashcash, SolveAndVerify) {
  const Bytes payload = to_bytes("block-header");
  auto sol = solve(ByteView{payload.data(), payload.size()}, 10);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(
      verify(ByteView{payload.data(), payload.size()}, sol->nonce, 10));
  EXPECT_TRUE(meets_difficulty(sol->digest, 10));
}

TEST(Hashcash, HigherDifficultyStillVerifiesLower) {
  const Bytes payload = to_bytes("p");
  auto sol = solve(ByteView{payload.data(), payload.size()}, 12);
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(verify(ByteView{payload.data(), payload.size()}, sol->nonce, 8));
}

TEST(Hashcash, WrongNonceFails) {
  const Bytes payload = to_bytes("p2");
  auto sol = solve(ByteView{payload.data(), payload.size()}, 12);
  ASSERT_TRUE(sol.has_value());
  // A neighbouring nonce almost surely fails a 12-bit target.
  EXPECT_FALSE(
      verify(ByteView{payload.data(), payload.size()}, sol->nonce + 1, 12));
}

TEST(Hashcash, MaxTriesBoundsSearch) {
  const Bytes payload = to_bytes("hard");
  auto sol = solve(ByteView{payload.data(), payload.size()}, 60,
                   /*start_nonce=*/0, /*max_tries=*/10);
  EXPECT_FALSE(sol.has_value());
}

TEST(Hashcash, ExpectedTriesScale) {
  EXPECT_DOUBLE_EQ(expected_tries(0), 1.0);
  EXPECT_DOUBLE_EQ(expected_tries(10), 1024.0);
  EXPECT_DOUBLE_EQ(expected_tries(20) / expected_tries(10), 1024.0);
}

// ---------------------------------------------------------------------------
// account_of's memo is cleared wholesale at 2^16 keys. Pushing more than
// 2^16 + 2^14 distinct keys through it crosses the clear; every id must
// still be the tagged hash of the little-endian key, on first and repeat
// lookups alike.

TEST(AccountOf, MemoizedIdsMatchTheDerivationAcrossTheClear) {
  const auto derive = [](std::uint64_t key) {
    Bytes le(8);
    for (std::size_t i = 0; i < 8; ++i)
      le[i] = static_cast<Byte>(key >> (8 * i));
    return tagged_hash("dlt/account-id", ByteView{le.data(), le.size()});
  };
  const std::uint64_t base = 50'000;
  const std::size_t total =
      (std::size_t{1} << 16) + (std::size_t{1} << 14) + 7;
  for (std::size_t i = 0; i < total; ++i) {
    const AccountId id = account_of(base + i);
    ASSERT_EQ(id, derive(base + i)) << "key " << base + i;
    if (i % 4096 == 0) {
      ASSERT_EQ(account_of(base + i), id);
      ASSERT_EQ(account_of(base), derive(base));
    }
  }
  for (std::size_t i = total - 16; i < total; ++i)
    EXPECT_EQ(account_of(base + i), derive(base + i));
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_EQ(account_of(base + i), derive(base + i));
}

TEST(Hashcash, SolveEffortMatchesDifficultyStatistically) {
  // Mean tries across many puzzles should be within ~3x of 2^bits.
  const int bits = 8;
  double total_tries = 0;
  const int puzzles = 50;
  for (int i = 0; i < puzzles; ++i) {
    const Bytes payload = to_bytes("puzzle-" + std::to_string(i));
    auto sol = solve(ByteView{payload.data(), payload.size()}, bits);
    ASSERT_TRUE(sol.has_value());
    total_tries += static_cast<double>(sol->tries);
  }
  const double mean = total_tries / puzzles;
  EXPECT_GT(mean, expected_tries(bits) / 3.0);
  EXPECT_LT(mean, expected_tries(bits) * 3.0);
}

}  // namespace
}  // namespace dlt::crypto
