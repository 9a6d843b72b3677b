// Lattice block primitives: hashing, signing, anti-spam work, fork roots.
#include <gtest/gtest.h>

#include "lattice/block.hpp"
#include "lattice/voting.hpp"

namespace dlt::lattice {
namespace {

LatticeBlock sample_block() {
  LatticeBlock b;
  b.type = BlockType::kSend;
  b.account = crypto::KeyPair::from_seed(1).account_id();
  b.previous = crypto::Sha256::digest(as_bytes("prev"));
  b.balance = 500;
  b.link = crypto::KeyPair::from_seed(2).account_id();
  b.representative = crypto::KeyPair::from_seed(3).account_id();
  return b;
}

TEST(LatticeBlock, HashCommitsToContentNotWork) {
  LatticeBlock b = sample_block();
  const BlockHash h = b.hash();
  b.work = 12345;  // work excluded, as in Nano
  EXPECT_EQ(b.hash(), h);
  b.balance = 501;
  b.invalidate_digests();  // direct field writes bypass the digest memo
  EXPECT_NE(b.hash(), h);
}

TEST(LatticeBlock, SignVerify) {
  Rng rng(1);
  auto key = crypto::KeyPair::from_seed(1);
  LatticeBlock b = sample_block();
  b.sign(key, rng);
  EXPECT_TRUE(b.verify_signature());
  b.balance ^= 1;
  b.invalidate_digests();
  EXPECT_FALSE(b.verify_signature());
}

TEST(LatticeBlock, ForeignKeyCannotSignForAccount) {
  Rng rng(2);
  auto other = crypto::KeyPair::from_seed(99);
  LatticeBlock b = sample_block();  // account belongs to seed 1
  b.sign(other, rng);
  EXPECT_FALSE(b.verify_signature());
}

TEST(LatticeBlock, WorkSolveVerify) {
  LatticeBlock b = sample_block();
  EXPECT_FALSE(b.verify_work(12));  // work=0 almost surely fails
  b.solve_work(12);
  EXPECT_TRUE(b.verify_work(12));
  EXPECT_TRUE(b.verify_work(8));  // weaker threshold also passes
}

TEST(LatticeBlock, WorkBoundToPosition) {
  // The work covers the predecessor; a different position needs new work.
  LatticeBlock b = sample_block();
  b.solve_work(12);
  LatticeBlock moved = b;
  moved.previous = crypto::Sha256::digest(as_bytes("elsewhere"));
  EXPECT_FALSE(moved.verify_work(12));
}

TEST(LatticeBlock, OpenWorkCoversAccount) {
  LatticeBlock b = sample_block();
  b.type = BlockType::kOpen;
  b.previous = BlockHash{};  // open: zero previous -> work over account
  b.solve_work(10);
  EXPECT_TRUE(b.verify_work(10));
}

TEST(LatticeBlock, SerializedSizeMatchesNano) {
  EXPECT_EQ(sample_block().serialized_size(), 216u);
}

TEST(LatticeBlock, TypeNames) {
  EXPECT_STREQ(to_string(BlockType::kOpen), "open");
  EXPECT_STREQ(to_string(BlockType::kSend), "send");
  EXPECT_STREQ(to_string(BlockType::kReceive), "receive");
  EXPECT_STREQ(to_string(BlockType::kChange), "change");
}

TEST(Root, EqualityAndHashing) {
  Root a{crypto::KeyPair::from_seed(1).account_id(),
         crypto::Sha256::digest(as_bytes("p"))};
  Root b = a;
  EXPECT_EQ(a, b);
  b.previous.v[0] ^= 1;
  EXPECT_NE(a, b);
  EXPECT_NE(std::hash<Root>{}(a), std::hash<Root>{}(b));
}

TEST(Vote, SignVerifyAndTamper) {
  Rng rng(3);
  auto rep = crypto::KeyPair::from_seed(10);
  Vote v;
  v.root = Root{crypto::KeyPair::from_seed(1).account_id(), {}};
  v.block = crypto::Sha256::digest(as_bytes("candidate"));
  v.sequence = 7;
  v.sign(rep, rng);
  EXPECT_TRUE(v.verify());
  v.block.v[0] ^= 1;
  v.invalidate_digests();  // direct field writes bypass the sighash memo
  EXPECT_FALSE(v.verify());
}

TEST(Vote, ResignAfterFieldWriteSignsTheNewContent) {
  // sign() must drop the memo before it hashes: a vote re-signed after a
  // field write signs (and memoizes) its new content, not the old digest.
  Rng rng(4);
  auto rep = crypto::KeyPair::from_seed(10);
  Vote v;
  v.root = Root{crypto::KeyPair::from_seed(1).account_id(), {}};
  v.block = crypto::Sha256::digest(as_bytes("candidate"));
  v.sequence = 7;
  v.sign(rep, rng);
  const Hash256 first = v.sighash();

  v.sequence = 8;
  v.sign(rep, rng);
  EXPECT_TRUE(v.verify());

  Vote recomputed = v;
  recomputed.invalidate_digests();
  EXPECT_EQ(v.sighash(), recomputed.sighash());
  EXPECT_NE(v.sighash(), first);
  EXPECT_TRUE(recomputed.verify());
}

}  // namespace
}  // namespace dlt::lattice
