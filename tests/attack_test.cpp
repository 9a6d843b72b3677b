// Adversarial scenarios across both paradigms (paper §III, §IV):
// majority/minority double-spend races, private-chain releases, theft
// attempts on the lattice, spam without work, PoS equivocation.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/chain_cluster.hpp"
#include "core/confidence.hpp"
#include "core/lattice_cluster.hpp"
#include "chain_test_util.hpp"
#include "lattice_test_util.hpp"

namespace dlt {
namespace {

using chain::testutil::cheap_pow_utxo;
using chain::testutil::fund_all;
using chain::testutil::make_keys;
using chain::testutil::seal_empty_utxo;

// ---------------------------------------------------------------------------
// §IV-A: double-spend race as a function of attacker hash share.

struct RaceResult {
  int attacker_wins = 0;
  int trials = 0;
};

/// The merchant model (Nakamoto's convention): wait for `depth`
/// confirmations, then see if an attacker with hash share q can overtake
/// from the fork point. A pure function of the seed.
RaceResult run_races(double q, std::uint32_t depth, int trials,
                     std::uint64_t seed) {
  Rng rng(seed);
  RaceResult out;
  out.trials = trials;
  for (int t = 0; t < trials; ++t) {
    // Honest chain mines `depth` blocks; attacker mines privately.
    int attacker = 0;
    int honest = 0;
    while (honest < static_cast<int>(depth)) {
      if (rng.chance(q))
        ++attacker;
      else
        ++honest;
    }
    // Attacker keeps going until ahead or hopeless.
    int deficit = honest - attacker;
    bool win = deficit <= 0;  // caught up = wins (Nakamoto's convention)
    int steps = 0;
    while (!win && steps < 10000) {
      if (rng.chance(q))
        --deficit;
      else
        ++deficit;
      if (deficit <= 0) win = true;
      if (deficit > 60) break;  // < 1e-12 recovery probability
      ++steps;
    }
    if (win) ++out.attacker_wins;
  }
  return out;
}

TEST(DoubleSpendRace, MinorityUsuallyLosesAtDepthSix) {
  const RaceResult r = run_races(0.10, 6, 4000, 7);
  const double rate =
      static_cast<double>(r.attacker_wins) / static_cast<double>(r.trials);
  // Analytic value is ~0.0002; allow generous sampling noise.
  EXPECT_LT(rate, 0.005);
  EXPECT_EQ(run_races(0.10, 6, 4000, 7).attacker_wins, r.attacker_wins);
}

TEST(DoubleSpendRace, MajorityAlwaysWinsEventually) {
  const RaceResult r = run_races(0.60, 6, 300, 8);
  EXPECT_EQ(r.attacker_wins, r.trials);
}

TEST(DoubleSpendRace, MatchesAnalyticOrdering) {
  // Higher q, higher success; deeper confirmation, lower success.
  const double shallow =
      static_cast<double>(run_races(0.3, 2, 4000, 9).attacker_wins) / 4000;
  const double deep =
      static_cast<double>(run_races(0.3, 10, 4000, 10).attacker_wins) / 4000;
  EXPECT_GT(shallow, deep);
  EXPECT_NEAR(shallow, core::reversal_probability(0.3, 2), 0.05);
}

// ---------------------------------------------------------------------------
// Private-chain release: a withheld branch displaces public history
// (the §IV-A "no guarantee it will remain a valid entry").

/// Mines `blocks` empty blocks on the attacker's private tip.
void mine_private(chain::Blockchain& attacker, crypto::AccountId miner,
                  std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i) {
    chain::Block b = seal_empty_utxo(attacker, miner, attacker.tip_hash());
    EXPECT_TRUE(attacker.submit(b).ok());
  }
}

struct ReleaseOutcome {
  std::size_t accepted = 0;       // submits that returned ok
  bool reorged = false;           // any submit reported kReorged
  std::uint32_t reorg_depth = 0;  // deepest single reorg observed
};

/// Releases the withheld branch into `victim` in height order. Rejected
/// blocks (e.g. below a finalized checkpoint) are skipped, as a real
/// victim would drop them.
ReleaseOutcome release_into(const chain::Blockchain& attacker,
                            chain::Blockchain& victim) {
  ReleaseOutcome out;
  for (std::uint32_t h = 1; h <= attacker.height(); ++h) {
    const auto res = victim.submit(*attacker.at_height(h));
    if (!res.ok()) continue;
    ++out.accepted;
    if (res->outcome == chain::Accept::kReorged) {
      out.reorged = true;
      out.reorg_depth = std::max(out.reorg_depth, res->reorg_depth);
    }
  }
  return out;
}

TEST(PrivateChain, DeepReorgRevertsConfirmedBlocks) {
  auto keys = make_keys(2);
  const chain::GenesisSpec genesis = fund_all(keys, 1000);
  chain::Blockchain victim(cheap_pow_utxo(), genesis);

  // Public chain: 3 blocks everyone sees.
  for (int i = 0; i < 3; ++i) {
    chain::Block b =
        seal_empty_utxo(victim, keys[0].account_id(), victim.tip_hash());
    ASSERT_TRUE(victim.submit(b).ok());
  }
  const chain::BlockHash public_tip = victim.tip_hash();

  // Attacker mines 5 blocks privately from genesis.
  chain::Blockchain attacker(cheap_pow_utxo(), genesis);
  mine_private(attacker, keys[1].account_id(), 5);

  // Release: victim adopts the heavier branch wholesale.
  const ReleaseOutcome outcome = release_into(attacker, victim);
  EXPECT_EQ(outcome.accepted, 5u);
  EXPECT_TRUE(outcome.reorged);
  EXPECT_EQ(outcome.reorg_depth, 3u);

  EXPECT_EQ(victim.tip_hash(), attacker.tip_hash());
  EXPECT_FALSE(victim.on_active_chain(public_tip));
  EXPECT_EQ(victim.fork_stats().max_reorg_depth, 3u);
}

TEST(PrivateChain, FinalityStopsTheRelease) {
  // With a Casper-style finalized checkpoint the same release fails
  // (paper §IV-A: "non-reversible checkpoints, guaranteeing inclusion").
  auto keys = make_keys(2);
  const chain::GenesisSpec genesis = fund_all(keys, 1000);
  chain::Blockchain victim(cheap_pow_utxo(), genesis);

  for (int i = 0; i < 3; ++i) {
    chain::Block b =
        seal_empty_utxo(victim, keys[0].account_id(), victim.tip_hash());
    ASSERT_TRUE(victim.submit(b).ok());
  }
  ASSERT_TRUE(victim.finalize(victim.at_height(2)->hash()).ok());

  chain::Blockchain attacker(cheap_pow_utxo(), genesis);
  mine_private(attacker, keys[1].account_id(), 5);

  const chain::BlockHash old_tip = victim.tip_hash();
  const ReleaseOutcome outcome = release_into(attacker, victim);
  EXPECT_FALSE(outcome.reorged);
  EXPECT_EQ(victim.tip_hash(), old_tip);
}

// ---------------------------------------------------------------------------
// Lattice attacks (paper §III-B, §IV-B).

using lattice::testutil::Builder;
using lattice::testutil::cheap_params;

class LatticeAttack : public ::testing::Test {
 protected:
  LatticeAttack()
      : genesis(crypto::KeyPair::from_seed(1)),
        mallory(crypto::KeyPair::from_seed(66)),
        victim(crypto::KeyPair::from_seed(3)),
        rng(4),
        ledger(cheap_params(), genesis.account_id(), genesis.account_id(),
               1'000'000),
        b{ledger, rng, cheap_params().work_bits} {}

  crypto::KeyPair genesis, mallory, victim;
  Rng rng;
  lattice::Ledger ledger;
  Builder b;
};

TEST_F(LatticeAttack, CannotStealPendingFunds) {
  lattice::LatticeBlock send = b.send(genesis, victim.account_id(), 500);
  ASSERT_TRUE(ledger.process(send).ok());
  // Mallory tries to claim the victim's pending send.
  lattice::LatticeBlock theft =
      b.open(mallory, send.hash(), 500, mallory.account_id());
  EXPECT_EQ(ledger.process(theft).error().code, "wrong-destination");
  EXPECT_EQ(ledger.balance_of(mallory.account_id()), 0u);
}

TEST_F(LatticeAttack, CannotForgeBlocksForOthersChains) {
  lattice::LatticeBlock send = b.send(genesis, victim.account_id(), 500);
  ASSERT_TRUE(ledger.process(send).ok());
  lattice::LatticeBlock open =
      b.open(victim, send.hash(), 500, victim.account_id());
  ASSERT_TRUE(ledger.process(open).ok());

  // Mallory crafts a send FROM the victim's account, signed by mallory.
  lattice::LatticeBlock forged;
  forged.type = lattice::BlockType::kSend;
  forged.account = victim.account_id();
  forged.previous = open.hash();
  forged.balance = 0;
  forged.link = mallory.account_id();
  forged.representative = victim.account_id();
  forged.solve_work(cheap_params().work_bits);
  forged.sign(mallory, rng);  // wrong key
  EXPECT_EQ(ledger.process(forged).error().code, "bad-signature");
  EXPECT_EQ(ledger.balance_of(victim.account_id()), 500u);
}

TEST_F(LatticeAttack, CannotMintValue) {
  lattice::LatticeBlock send = b.send(genesis, victim.account_id(), 500);
  ASSERT_TRUE(ledger.process(send).ok());
  // Victim claims MORE than was sent.
  lattice::LatticeBlock greedy =
      b.open(victim, send.hash(), 9'999, victim.account_id());
  EXPECT_EQ(ledger.process(greedy).error().code, "bad-balance");
  EXPECT_TRUE(ledger.conserves_value());
}

TEST_F(LatticeAttack, DoubleReceiveOfSameSendRejected) {
  lattice::LatticeBlock send = b.send(genesis, victim.account_id(), 500);
  ASSERT_TRUE(ledger.process(send).ok());
  lattice::LatticeBlock open =
      b.open(victim, send.hash(), 500, victim.account_id());
  ASSERT_TRUE(ledger.process(open).ok());
  lattice::LatticeBlock again = b.receive(victim, send.hash(), 500);
  EXPECT_EQ(ledger.process(again).error().code, "already-claimed");
}

TEST(LatticeSpam, WorklessFloodRejectedNetworkWide) {
  // §III-B: PoW as spam protection. A flood of signature-valid but
  // work-less blocks is dropped by every node.
  core::LatticeClusterConfig cfg;
  cfg.node_count = 3;
  cfg.account_count = 4;
  cfg.params.work_bits = 12;  // meaningful threshold
  cfg.seed = 3;
  core::LatticeCluster cluster(cfg);
  cluster.fund_accounts();

  auto& owner = cluster.owner_of(0);
  const auto& key = cluster.account(0);
  Rng rng(5);
  const std::uint64_t before = cluster.node(1).ledger().block_count();

  for (int i = 0; i < 20; ++i) {
    const auto* info = owner.ledger().account(key.account_id());
    lattice::LatticeBlock spam;
    spam.type = lattice::BlockType::kSend;
    spam.account = key.account_id();
    spam.previous = info->head().hash();
    spam.balance = info->head().balance - 1;
    spam.link = cluster.account(1).account_id();
    spam.representative = info->head().representative;
    spam.work = static_cast<std::uint64_t>(i);  // no real work
    if (spam.verify_work(12)) continue;         // (astronomically unlikely)
    spam.sign(key, rng);
    (void)cluster.node(0).publish(spam);
  }
  cluster.run_for(5.0);
  EXPECT_EQ(cluster.node(1).ledger().block_count(), before);
}

// ---------------------------------------------------------------------------
// PoS: whole-block equivocation slashed network-wide (paper §III-A2).

TEST(PosAttack, EquivocatingProposerLosesStake) {
  core::ChainClusterConfig cfg;
  cfg.params = chain::pos_like();
  cfg.params.epoch_length = 10;
  cfg.node_count = 4;
  cfg.validator_count = 4;
  cfg.account_count = 4;
  cfg.seed = 12;
  core::ChainCluster cluster(cfg);
  cluster.start();
  cluster.run_for(30.0);  // a few slots of honest operation

  // Forge two different blocks for the same slot by the same proposer and
  // deliver both to node 0.
  auto& honest = cluster.node(0);
  const chain::Block* tip = honest.chain().find(honest.chain().tip_hash());
  ASSERT_NE(tip, nullptr);
  ASSERT_GT(tip->header.slot, 0u);

  const chain::Amount stake_before =
      honest.validators().stake_of(tip->header.proposer);
  ASSERT_GT(stake_before, 0u);

  chain::Block evil = *tip;
  evil.header.timestamp += 0.001;  // different content, same slot+proposer
  evil.header.invalidate_digests();  // direct field write bypasses the memo
  honest.chain();  // (documenting intent; delivery below)
  // Deliver the equivocating block directly through the message path.
  cluster.network().send(
      cluster.node(1).id(), honest.id(),
      net::make_message("block", evil, evil.serialized_size()));
  cluster.run_for(5.0);

  EXPECT_EQ(honest.validators().stake_of(tip->header.proposer), 0u);
  EXPECT_LT(honest.validators().total_stake(),
            4 * cfg.stake_per_validator);
}

}  // namespace
}  // namespace dlt
