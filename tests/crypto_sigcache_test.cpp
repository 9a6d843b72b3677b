// Tests for the crypto hot-path layer: digest memoization, the shared
// signature-verification cache and SHA-256/PoW midstates.
#include <gtest/gtest.h>

#include <string>

#include "chain/account_tx.hpp"
#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sigcache.hpp"
#include "lattice/block.hpp"

namespace dlt {
namespace {

// --------------------------------------------------------------------------
// SHA-256 midstate save/restore.

TEST(Sha256Midstate, RoundTripMatchesDirectDigest) {
  // Split points straddle the 64-byte block boundary to exercise both a
  // partially-filled buffer and a block-aligned midstate.
  const std::string msg(200, 'x');
  for (std::size_t split : {0u, 1u, 63u, 64u, 65u, 128u, 200u}) {
    crypto::Sha256 ctx;
    ctx.update(as_bytes(std::string_view(msg).substr(0, split)));
    const crypto::Sha256Midstate mid = ctx.midstate();

    crypto::Sha256 resumed = crypto::Sha256::from_midstate(mid);
    resumed.update(as_bytes(std::string_view(msg).substr(split)));

    EXPECT_EQ(resumed.finalize(), crypto::Sha256::digest(as_bytes(msg)))
        << "split at " << split;
  }
}

TEST(Sha256Midstate, ReusableForManySuffixes) {
  crypto::Sha256 ctx;
  ctx.update(as_bytes("common prefix "));
  const crypto::Sha256Midstate mid = ctx.midstate();
  for (const char* suffix : {"a", "bb", "ccc"}) {
    crypto::Sha256 resumed = crypto::Sha256::from_midstate(mid);
    resumed.update(as_bytes(suffix));
    EXPECT_EQ(resumed.finalize(),
              crypto::Sha256::digest(
                  as_bytes(std::string("common prefix ") + suffix)));
  }
}

TEST(PowMidstate, DigestMatchesPowHash) {
  const std::string payload = "block header bytes for mining";
  const crypto::PowMidstate mid(as_bytes(payload));
  for (std::uint64_t nonce :
       {0ull, 1ull, 255ull, 0x1234ull, 0xffffffffffffffffull}) {
    EXPECT_EQ(mid.digest(nonce), crypto::pow_hash(as_bytes(payload), nonce))
        << "nonce " << nonce;
  }
}

// --------------------------------------------------------------------------
// Digest memoization + invalidation.

TEST(DigestMemo, UtxoIdInvalidatedByExplicitCall) {
  Rng rng(1);
  auto key = crypto::KeyPair::from_seed(1);
  chain::UtxoTransaction tx;
  tx.inputs.push_back(
      chain::TxIn{chain::Outpoint{{}, 0}, key.public_key(), {}});
  tx.outputs.push_back(chain::TxOut{5, key.account_id()});
  tx.sign_all({key}, rng);

  const chain::TxId id1 = tx.id();
  EXPECT_EQ(tx.id(), id1);  // stable across repeated calls

  tx.outputs[0].value = 6;
  tx.invalidate_digests();
  EXPECT_NE(tx.id(), id1);  // recomputed over the new content
}

TEST(DigestMemo, SignAllInvalidatesIdButNotSighash) {
  Rng rng(2);
  auto key = crypto::KeyPair::from_seed(2);
  chain::UtxoTransaction tx;
  tx.inputs.push_back(
      chain::TxIn{chain::Outpoint{{}, 0}, key.public_key(), {}});
  tx.outputs.push_back(chain::TxOut{7, key.account_id()});

  const Hash256 sighash_before = tx.sighash();
  const chain::TxId id_before = tx.id();
  tx.sign_all({key}, rng);
  // Signatures are excluded from the sighash but included in the id.
  EXPECT_EQ(tx.sighash(), sighash_before);
  EXPECT_NE(tx.id(), id_before);
}

TEST(DigestMemo, AccountTxSignRefreshesDigests) {
  Rng rng(3);
  auto key = crypto::KeyPair::from_seed(3);
  chain::AccountTransaction tx;
  tx.to = crypto::KeyPair::from_seed(4).account_id();
  tx.value = 100;
  const Hash256 unsigned_id = tx.id();
  tx.sign(key, rng);  // sets from/pubkey/signature; must self-invalidate
  EXPECT_NE(tx.id(), unsigned_id);
  EXPECT_TRUE(tx.verify_signature());

  tx.nonce = 9;
  tx.invalidate_digests();
  EXPECT_FALSE(tx.verify_signature());  // sighash changed under the sig
}

TEST(DigestMemo, CopyRetainsCachedDigest) {
  lattice::LatticeBlock b;
  b.type = lattice::BlockType::kSend;
  b.account = crypto::KeyPair::from_seed(5).account_id();
  b.balance = 500;
  const Hash256 h = b.hash();

  lattice::LatticeBlock copy = b;  // content is byte-identical
  EXPECT_EQ(copy.hash(), h);

  copy.balance = 501;
  copy.invalidate_digests();
  EXPECT_NE(copy.hash(), h);
  EXPECT_EQ(b.hash(), h);  // original memo untouched
}

TEST(DigestMemo, BlockHeaderHashAndPowDigest) {
  chain::BlockHeader h;
  h.height = 3;
  h.timestamp = 1.5;
  const Hash256 hash1 = h.hash();

  // The nonce is outside pow_payload() but inside hash(): sweeping it must
  // change pow_digest() (midstate path) without disturbing pow_payload.
  const Hash256 d0 = h.pow_digest();
  h.nonce = 1;
  EXPECT_NE(h.pow_digest(), d0);
  EXPECT_EQ(h.pow_digest(), crypto::pow_hash(h.pow_payload(), h.nonce));

  h.nonce = 0;
  h.invalidate_digests();
  EXPECT_EQ(h.hash(), hash1);

  h.height = 4;
  h.invalidate_digests();
  EXPECT_NE(h.hash(), hash1);
}

// --------------------------------------------------------------------------
// Signature cache.

TEST(SigCache, TamperedSignatureNeverHitsEvenWhenWarm) {
  Rng rng(7);
  auto key = crypto::KeyPair::from_seed(7);
  const Hash256 sighash = crypto::Sha256::digest(as_bytes("spend 100"));
  const crypto::Signature sig = key.sign(sighash.bytes(), rng);

  crypto::SignatureCache cache;
  ASSERT_TRUE(
      crypto::verify_cached(&cache, key.public_key(), sighash, sig));
  ASSERT_TRUE(
      crypto::verify_cached(&cache, key.public_key(), sighash, sig));
  EXPECT_EQ(cache.stats().hits, 1u);

  // Every tampered variant must miss the cache AND fail real verification.
  crypto::Signature bad = sig;
  bad.s ^= 1;
  EXPECT_FALSE(
      crypto::verify_cached(&cache, key.public_key(), sighash, bad));
  Hash256 other = crypto::Sha256::digest(as_bytes("spend 999"));
  EXPECT_FALSE(crypto::verify_cached(&cache, key.public_key(), other, sig));
  EXPECT_FALSE(crypto::verify_cached(
      &cache, crypto::KeyPair::from_seed(8).public_key(), sighash, sig));

  // Failures are never inserted: the cache still holds one entry.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(SigCache, NullCacheIsPlainVerification) {
  Rng rng(9);
  auto key = crypto::KeyPair::from_seed(9);
  const Hash256 sighash = crypto::Sha256::digest(as_bytes("msg"));
  const crypto::Signature sig = key.sign(sighash.bytes(), rng);
  EXPECT_TRUE(
      crypto::verify_cached(nullptr, key.public_key(), sighash, sig));
  crypto::Signature bad = sig;
  bad.r ^= 1;
  EXPECT_FALSE(
      crypto::verify_cached(nullptr, key.public_key(), sighash, bad));
}

TEST(SigCache, ContainsCountsOneHitOrMissPerLookup) {
  Rng rng(10);
  auto key = crypto::KeyPair::from_seed(10);
  const Hash256 sighash = crypto::Sha256::digest(as_bytes("lookup"));
  const crypto::Signature sig = key.sign(sighash.bytes(), rng);

  crypto::SignatureCache cache;
  EXPECT_FALSE(cache.contains(key.public_key(), sighash, sig));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  cache.insert(key.public_key(), sighash, sig);
  EXPECT_TRUE(cache.contains(key.public_key(), sighash, sig));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SigCache, BoundedWithWholesaleReset) {
  crypto::SignatureCache cache(/*max_entries=*/4);
  Rng rng(11);
  auto key = crypto::KeyPair::from_seed(11);
  for (int i = 0; i < 10; ++i) {
    std::string msg = "m";
    msg += std::to_string(i);
    const Hash256 sighash = crypto::Sha256::digest(as_bytes(msg));
    cache.insert(key.public_key(), sighash, key.sign(sighash.bytes(), rng));
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_GE(cache.stats().resets, 1u);
  EXPECT_EQ(cache.stats().insertions, 10u);
}

}  // namespace
}  // namespace dlt
