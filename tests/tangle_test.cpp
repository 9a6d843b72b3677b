// IOTA-style tangle (paper §II-B footnote 1): attachment rules, weights,
// tip selection, confirmation confidence, double-spend starvation.
#include <gtest/gtest.h>

#include <algorithm>

#include "tangle/tangle.hpp"
#include "tangle_oracle.hpp"

namespace dlt::tangle {
namespace {

TangleParams cheap() {
  TangleParams p;
  p.work_bits = 2;
  return p;
}

Hash256 payload_of(int i) {
  return crypto::Sha256::digest(as_bytes("payload" + std::to_string(i)));
}

class TangleTest : public ::testing::Test {
 protected:
  TangleTest() : issuer(crypto::KeyPair::from_seed(1)), rng(3),
                 tangle(cheap()) {}

  TangleTx issue(const TxHash& trunk, const TxHash& branch, int i,
                 const Hash256& spend = {}) {
    return make_tx(tangle, issuer, trunk, branch, payload_of(i), i, rng,
                   spend);
  }

  /// Grows the tangle by n transactions using honest tip selection.
  std::vector<TxHash> grow(int n, int base = 1000) {
    std::vector<TxHash> out;
    for (int i = 0; i < n; ++i) {
      const TxHash trunk = tangle.select_tip(rng);
      const TxHash branch = tangle.select_tip(rng);
      TangleTx tx = issue(trunk, branch, base + i);
      EXPECT_TRUE(tangle.attach(tx).ok());
      out.push_back(tx.hash());
    }
    return out;
  }

  crypto::KeyPair issuer;
  Rng rng;
  Tangle tangle;
};

TEST_F(TangleTest, GenesisIsInitialTip) {
  EXPECT_EQ(tangle.size(), 1u);
  EXPECT_EQ(tangle.tip_count(), 1u);
  EXPECT_EQ(tangle.tips()[0], tangle.genesis());
  EXPECT_EQ(tangle.cumulative_weight(tangle.genesis()), 1u);
}

TEST_F(TangleTest, AttachApprovesTwoParents) {
  TangleTx a = issue(tangle.genesis(), tangle.genesis(), 1);
  ASSERT_TRUE(tangle.attach(a).ok());
  EXPECT_EQ(tangle.size(), 2u);
  EXPECT_EQ(tangle.tip_count(), 1u);  // genesis is approved, a is the tip
  EXPECT_EQ(tangle.cumulative_weight(tangle.genesis()), 2u);

  TangleTx b = issue(a.hash(), tangle.genesis(), 2);
  ASSERT_TRUE(tangle.attach(b).ok());
  EXPECT_EQ(tangle.tip_count(), 1u);
  EXPECT_EQ(tangle.cumulative_weight(tangle.genesis()), 3u);
  EXPECT_EQ(tangle.cumulative_weight(a.hash()), 2u);
}

TEST_F(TangleTest, RejectsUnknownParents) {
  TxHash ghost;
  ghost.v[0] = 9;
  TangleTx tx = issue(ghost, tangle.genesis(), 1);
  EXPECT_EQ(tangle.attach(tx).error().code, "unknown-trunk");
  TangleTx tx2 = issue(tangle.genesis(), ghost, 2);
  EXPECT_EQ(tangle.attach(tx2).error().code, "unknown-branch");
}

TEST_F(TangleTest, RejectsBadSignatureAndWork) {
  TangleTx tx = issue(tangle.genesis(), tangle.genesis(), 1);
  tx.payload.v[0] ^= 1;  // breaks the signature
  EXPECT_EQ(tangle.attach(tx).error().code, "bad-signature");

  TangleParams strict = cheap();
  strict.work_bits = 20;
  Tangle hard(strict);
  TangleTx lazy = issue(hard.genesis(), hard.genesis(), 2);  // 2-bit work
  if (!lazy.verify_work(20)) {
    EXPECT_EQ(hard.attach(lazy).error().code, "insufficient-work");
  }
}

TEST_F(TangleTest, DuplicateRejected) {
  TangleTx tx = issue(tangle.genesis(), tangle.genesis(), 1);
  ASSERT_TRUE(tangle.attach(tx).ok());
  EXPECT_EQ(tangle.attach(tx).error().code, "duplicate");
}

TEST_F(TangleTest, WeightsAreMonotonicAlongApproval) {
  grow(60);
  // Genesis is in every cone: maximal weight. Every tx's weight is at
  // least 1 and at most its parents'.
  const std::size_t g = tangle.cumulative_weight(tangle.genesis());
  EXPECT_EQ(g, tangle.size());
  for (const TxHash& tip : tangle.tips())
    EXPECT_EQ(tangle.cumulative_weight(tip), 1u);
}

TEST_F(TangleTest, ConfidenceGrowsWithApproval) {
  auto txs = grow(10);
  const TxHash early = txs.front();
  const double early_conf = tangle.confirmation_confidence(early);
  grow(50, 2000);
  // An early transaction ends up in (almost) every tip's cone.
  EXPECT_GE(tangle.confirmation_confidence(early), early_conf);
  EXPECT_GT(tangle.confirmation_confidence(early), 0.9);
  // Genesis is always fully confirmed.
  EXPECT_DOUBLE_EQ(tangle.confirmation_confidence(tangle.genesis()), 1.0);
}

TEST_F(TangleTest, SelectTipReturnsATip) {
  grow(30);
  for (int i = 0; i < 10; ++i) {
    const TxHash t = tangle.select_tip(rng);
    const auto tips = tangle.tips();
    EXPECT_NE(std::find(tips.begin(), tips.end(), t), tips.end());
  }
}

TEST_F(TangleTest, DoubleSpendSecondConeRejected) {
  const Hash256 coin = crypto::Sha256::digest(as_bytes("coin-1"));
  TangleTx spend1 = issue(tangle.genesis(), tangle.genesis(), 1, coin);
  ASSERT_TRUE(tangle.attach(spend1).ok());
  // A second spend of the same key directly on top of the first: its own
  // cone would contain both -> rejected at attach.
  TangleTx naive = issue(spend1.hash(), spend1.hash(), 2, coin);
  EXPECT_EQ(tangle.attach(naive).error().code, "double-spend");
}

TEST_F(TangleTest, ConflictingBranchesCannotMerge) {
  const Hash256 coin = crypto::Sha256::digest(as_bytes("coin-2"));
  // Two spends of the same coin on DISJOINT branches: both individually
  // valid (the real double-spend attack).
  TangleTx spend1 = issue(tangle.genesis(), tangle.genesis(), 1, coin);
  ASSERT_TRUE(tangle.attach(spend1).ok());
  TangleTx spend2 = issue(tangle.genesis(), tangle.genesis(), 2, coin);
  ASSERT_TRUE(tangle.attach(spend2).ok());

  // No transaction may approve both branches.
  TangleTx merge = issue(spend1.hash(), spend2.hash(), 3);
  EXPECT_EQ(tangle.attach(merge).error().code, "inconsistent-parents");
}

TEST_F(TangleTest, HonestTrafficStarvesOneConflictSide) {
  // A stronger walk bias makes starvation decisive (the whitepaper's
  // argument for alpha > 0; see bench_tangle for the sweep).
  TangleParams p = cheap();
  p.alpha = 0.5;
  Tangle biased(p);

  auto issue_on = [&](const TxHash& trunk, const TxHash& branch, int i,
                      const Hash256& spend = {}) {
    return make_tx(biased, issuer, trunk, branch, payload_of(i), i, rng,
                   spend);
  };
  const Hash256 coin = crypto::Sha256::digest(as_bytes("coin-3"));
  TangleTx spend1 = issue_on(biased.genesis(), biased.genesis(), 1, coin);
  ASSERT_TRUE(biased.attach(spend1).ok());
  TangleTx spend2 = issue_on(biased.genesis(), biased.genesis(), 2, coin);
  ASSERT_TRUE(biased.attach(spend2).ok());

  // Honest issuers extend whatever tip selection returns; a walk can only
  // ever follow one side of the conflict, and weight feedback
  // concentrates traffic there.
  for (int i = 0; i < 150; ++i) {
    const TxHash trunk = biased.select_tip(rng);
    const TxHash branch_candidate = biased.select_tip(rng);
    TangleTx tx = issue_on(trunk, branch_candidate, 100 + i);
    if (!biased.attach(tx).ok()) {
      // The issuer must not merge conflicting cones; retry like a client.
      TangleTx retry = issue_on(trunk, trunk, 100 + i);
      ASSERT_TRUE(biased.attach(retry).ok());
    }
  }

  const double w1 =
      static_cast<double>(biased.cumulative_weight(spend1.hash()));
  const double w2 =
      static_cast<double>(biased.cumulative_weight(spend2.hash()));
  // One side's approving weight dominates decisively.
  EXPECT_GT(std::max(w1, w2) / std::max(1.0, std::min(w1, w2)), 3.0);

  // Tip cones are mutually exclusive w.r.t. the conflict: confidences can
  // never sum above 1 -- the double spend cannot have both sides settle.
  const double c1 = biased.confirmation_confidence(spend1.hash());
  const double c2 = biased.confirmation_confidence(spend2.hash());
  EXPECT_LE(c1 + c2, 1.0 + 1e-9);
}

TEST_F(TangleTest, SpendAwareTipSelectionAvoidsConflicts) {
  const Hash256 coin = crypto::Sha256::digest(as_bytes("coin-4"));
  TangleTx spend1 = issue(tangle.genesis(), tangle.genesis(), 1, coin);
  ASSERT_TRUE(tangle.attach(spend1).ok());
  grow(20);  // traffic on top (all built over spend1's side or genesis)

  // An issuer about to spend `coin` again asks for tips avoiding it: the
  // walk must return a tip whose cone excludes spend1.
  for (int i = 0; i < 5; ++i) {
    const TxHash tip = tangle.select_tip(rng, {coin});
    EXPECT_FALSE(tangle.cone_spend_keys(tip).count(coin))
        << "walk entered a conflicting cone";
  }
}

TEST_F(TangleTest, StorageModel) {
  grow(10);
  EXPECT_EQ(tangle.stored_bytes(), 11 * TangleTx::kSerializedSize);
}

TEST(TangleOracle, WeightedKeyedTangleMatchesOracle) {
  // Own weights up to max_own_weight = 64, three contested coins and both
  // walk strategies. Each round selects tips for three transactions before
  // attaching any, like issuers racing on one view, so the tangle is wide:
  // keyed cones, conflicting branches and rejected merges all occur, and
  // the index must agree with the oracle throughout.
  TangleParams p = cheap();
  p.max_own_weight = 64;
  Tangle tangle(p);
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(5);
  Rng rng(17);
  std::size_t rejected = 0;
  int i = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<TangleTx> batch;
    for (int k = 0; k < 3; ++k, ++i) {
      Hash256 spend{};
      if (i % 5 == 0)
        spend = crypto::Sha256::digest(
            as_bytes("oracle-coin-" + std::to_string(i / 5 % 3)));
      std::vector<Hash256> avoid;
      if (!spend.is_zero()) avoid.push_back(spend);
      const TipStrategy strategy =
          round % 3 == 0 ? TipStrategy::kUniform : TipStrategy::kMcmc;
      const TxHash trunk = tangle.select_tip_with(strategy, rng, avoid);
      const TxHash branch = tangle.select_tip_with(strategy, rng, avoid);
      batch.push_back(make_tx(tangle, issuer, trunk, branch, payload_of(i), i,
                              rng, spend, 1 + rng.uniform(64)));
    }
    for (const TangleTx& tx : batch)
      if (!tangle.attach(tx).ok()) ++rejected;
    if (round % 10 == 9) testutil::expect_index_matches_oracle(tangle);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(tangle.size(), 100u);
  EXPECT_GT(tangle.tip_count(), 1u);
  for (double threshold : {0.0, 0.25, 1.0})
    testutil::expect_index_matches_oracle(tangle, threshold);
}

TEST(TangleOracle, NonTipParentsAndLongUnapprovedTipMatchOracle) {
  // Tip selection only ever hands attach recent parents. Here every third
  // transaction approves two vertices drawn uniformly from the whole
  // tangle, genesis and interior vertices included, and one tip stays
  // unapproved for 400 attaches before the last transaction approves it:
  // the cone bookkeeping must stay exact when a new transaction leaves
  // old vertices outside its past cone.
  TangleParams p = cheap();
  p.max_own_weight = 8;
  Tangle tangle(p);
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(6);
  Rng rng(23);
  std::vector<TxHash> attached{tangle.genesis()};
  int i = 0;
  auto attach = [&](const TxHash& trunk, const TxHash& branch) {
    const TangleTx tx = make_tx(tangle, issuer, trunk, branch, payload_of(i),
                                i, rng, {}, 1 + rng.uniform(8));
    ++i;
    EXPECT_TRUE(tangle.attach(tx).ok());
    attached.push_back(tx.hash());
  };
  // With one tip every selection returns it, so these ten form a chain
  // and every vertex but the newest is interior.
  for (int k = 0; k < 10; ++k) {
    const TxHash tip = tangle.select_tip(rng);
    attach(tip, tip);
  }
  attach(tangle.genesis(), attached[1 + rng.uniform(attached.size() - 2)]);
  const TxHash lazy = attached.back();

  auto draw_parent = [&](int k) {
    for (;;) {
      const TxHash h =
          k % 3 == 0 ? attached[rng.uniform(attached.size())]
                     : tangle.select_tip_with(
                           k % 3 == 1 ? TipStrategy::kMcmc
                                      : TipStrategy::kUniform,
                           rng);
      if (h != lazy) return h;
    }
  };
  for (int k = 1; k <= 400; ++k) {
    const TxHash trunk = draw_parent(k);
    attach(trunk, draw_parent(k));
    if (k % 25 == 0) testutil::expect_index_matches_oracle(tangle);
  }
  EXPECT_EQ(tangle.cumulative_weight(lazy), tangle.find(lazy)->own_weight);

  attach(lazy, tangle.select_tip(rng));
  testutil::expect_index_matches_oracle(tangle);
}

}  // namespace
}  // namespace dlt::tangle
