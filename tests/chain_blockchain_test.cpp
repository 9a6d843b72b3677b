// Blockchain engine: genesis, extension, validation, soft forks/reorgs
// (paper Fig. 4), orphan pool, difficulty, confirmations.
#include <gtest/gtest.h>

#include "chain_test_util.hpp"

namespace dlt::chain {
namespace {

using testutil::cheap_pow_utxo;
using testutil::fund_all;
using testutil::make_keys;
using testutil::seal_block;
using testutil::seal_empty_utxo;

class BlockchainTest : public ::testing::Test {
 protected:
  BlockchainTest()
      : keys(make_keys(4)),
        chain(cheap_pow_utxo(), fund_all(keys, 100'000)),
        miner(keys[0].account_id()),
        rng(11) {}

  Block extend_tip() { return seal_empty_utxo(chain, miner, chain.tip_hash()); }

  /// Builds a spend of `amount` from keys[from] to keys[to] using the
  /// genesis allocation output (or any owned coin).
  UtxoTransaction make_spend(std::size_t from, std::size_t to,
                             Amount amount) {
    auto coins = chain.utxo_set().find_owned(keys[from].account_id());
    UtxoTransaction tx;
    Amount gathered = 0;
    for (const auto& [op, out] : coins) {
      tx.inputs.push_back(TxIn{op, 0, {}});
      gathered += out.value;
      if (gathered >= amount) break;
    }
    tx.outputs.push_back(TxOut{amount, keys[to].account_id()});
    if (gathered > amount)
      tx.outputs.push_back(TxOut{gathered - amount, keys[from].account_id()});
    std::vector<crypto::KeyPair> signers(tx.inputs.size(), keys[from]);
    tx.sign_all(signers, rng);
    return tx;
  }

  std::vector<crypto::KeyPair> keys;
  Blockchain chain;
  crypto::AccountId miner;
  Rng rng;
};

TEST_F(BlockchainTest, GenesisState) {
  EXPECT_EQ(chain.height(), 0u);
  EXPECT_EQ(chain.blocks_known(), 1u);
  EXPECT_EQ(chain.utxo_set().size(), 4u);
  EXPECT_EQ(chain.utxo_set().total_value(), 400'000u);
  const Block* genesis = chain.at_height(0);
  ASSERT_NE(genesis, nullptr);
  EXPECT_TRUE(genesis->header.is_genesis());
}

TEST_F(BlockchainTest, SharedGenesisIsDeterministic) {
  Blockchain other(cheap_pow_utxo(), fund_all(keys, 100'000));
  EXPECT_EQ(chain.tip_hash(), other.tip_hash());
}

TEST_F(BlockchainTest, ConnectExtendsTip) {
  Block b = extend_tip();
  auto res = chain.submit(b);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res->outcome, Accept::kConnected);
  EXPECT_EQ(chain.height(), 1u);
  EXPECT_EQ(chain.tip_hash(), b.hash());
  // Coinbase credited.
  EXPECT_EQ(chain.utxo_set().total_value(),
            400'000u + chain.params().block_reward);
}

TEST_F(BlockchainTest, DuplicateDetected) {
  Block b = extend_tip();
  ASSERT_TRUE(chain.submit(b).ok());
  auto res = chain.submit(b);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->outcome, Accept::kDuplicate);
}

TEST_F(BlockchainTest, BadPowRejected) {
  Block b = extend_tip();
  // Find a nonce that fails the target.
  for (std::uint64_t n = 0;; ++n) {
    b.header.nonce = n;
    if (!meets_target(b.header.pow_digest(), b.header.difficulty)) break;
  }
  auto res = chain.submit(b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-pow");
}

TEST_F(BlockchainTest, BadMerkleRootRejected) {
  Block b = extend_tip();
  b.header.merkle_root.v[0] ^= 1;
  auto res = chain.submit(b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-merkle-root");
}

TEST_F(BlockchainTest, MissingCoinbaseRejected) {
  Block b = extend_tip();
  b.txs = UtxoTxList{};  // strip everything
  b.header.merkle_root = b.compute_merkle_root();
  auto res = chain.submit(b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "missing-coinbase");
}

TEST_F(BlockchainTest, WrongHeightRejected) {
  Block b = extend_tip();
  b.header.height = 5;
  b.header.merkle_root = b.compute_merkle_root();
  for (std::uint64_t n = 0;; ++n) {
    b.header.nonce = n;
    if (meets_target(b.header.pow_digest(), b.header.difficulty)) break;
  }
  auto res = chain.submit(b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-height");
}

TEST_F(BlockchainTest, CoinbaseInflationRejected) {
  const Block* tip = chain.find(chain.tip_hash());
  UtxoTxList txs{UtxoTransaction::coinbase(
      miner, chain.params().block_reward + 1, tip->header.height + 1)};
  Block b = seal_block(chain, chain.tip_hash(), std::move(txs), miner);
  auto res = chain.submit(b);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "coinbase-inflation");
}

TEST_F(BlockchainTest, CoinbaseMayClaimFees) {
  UtxoTransaction spend = make_spend(1, 2, 60'000);
  // Fee = 40k change omitted? No: change returned, so fee is 0 here.
  // Rebuild with an explicit fee: send 60k, change 30k, fee 10k.
  UtxoTransaction tx;
  auto coins = chain.utxo_set().find_owned(keys[1].account_id());
  tx.inputs.push_back(TxIn{coins[0].first, 0, {}});
  tx.outputs.push_back(TxOut{60'000, keys[2].account_id()});
  tx.outputs.push_back(TxOut{30'000, keys[1].account_id()});
  tx.sign_all({keys[1]}, rng);

  const Block* tip = chain.find(chain.tip_hash());
  UtxoTxList txs{UtxoTransaction::coinbase(
      miner, chain.params().block_reward + 10'000, tip->header.height + 1)};
  txs.push_back(tx);
  Block b = seal_block(chain, chain.tip_hash(), std::move(txs), miner);
  auto res = chain.submit(b);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  (void)spend;
}

TEST_F(BlockchainTest, DoubleSpendAcrossBlocksRejected) {
  UtxoTransaction tx = make_spend(1, 2, 50'000);
  const Block* tip = chain.find(chain.tip_hash());
  UtxoTxList txs{UtxoTransaction::coinbase(miner, chain.params().block_reward,
                                           tip->header.height + 1),
                 tx};
  ASSERT_TRUE(chain.submit(
      seal_block(chain, chain.tip_hash(), std::move(txs), miner)).ok());

  // Same tx again in the next block: inputs are gone.
  UtxoTxList txs2{UtxoTransaction::coinbase(miner, chain.params().block_reward,
                                            chain.height() + 1),
                  tx};
  auto res =
      chain.submit(seal_block(chain, chain.tip_hash(), std::move(txs2), miner));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "missing-utxo");
}

TEST_F(BlockchainTest, InBlockDoubleSpendRejected) {
  // Two payments spend keys[1]'s only coin: the second finds its input
  // gone, the whole block fails, and the applied first payment unwinds.
  const BlockHash tip = chain.tip_hash();
  const Amount total = chain.utxo_set().total_value();
  UtxoTxList txs{
      UtxoTransaction::coinbase(miner, chain.params().block_reward, 1),
      make_spend(1, 2, 100'000), make_spend(1, 3, 100'000)};
  auto res = chain.submit(seal_block(chain, tip, std::move(txs), miner));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "missing-utxo");
  EXPECT_EQ(chain.tip_hash(), tip);
  EXPECT_EQ(chain.utxo_set().total_value(), total);
  EXPECT_EQ(chain.utxo_set().find_owned(keys[1].account_id()).size(), 1u);
}

TEST_F(BlockchainTest, UtxoGenerationMovesOnApplyAndRevert) {
  UtxoSet utxo;
  const std::uint64_t fresh = utxo.generation();
  const TxUndo undo =
      utxo.apply_transaction(UtxoTransaction::coinbase(miner, 50, 1));
  const std::uint64_t applied = utxo.generation();
  EXPECT_NE(applied, fresh);
  utxo.revert_transaction(undo);
  EXPECT_NE(utxo.generation(), applied);
  EXPECT_EQ(utxo.size(), 0u);
}

TEST_F(BlockchainTest, RejectedBlockMovesUtxoGenerationNotTip) {
  // The first payment applies, the second spends an outpoint that never
  // existed, and the block unwinds: no new tip and no connect hook, yet
  // the set was mutated and restored, so a cache keyed on the tip would
  // miss the change.
  const BlockHash tip = chain.tip_hash();
  const std::uint64_t before = chain.utxo_set().generation();
  const Outpoint genesis_coin =
      chain.utxo_set().find_owned(keys[2].account_id()).front().first;
  UtxoTransaction missing;
  missing.inputs.push_back(TxIn{Outpoint{genesis_coin.txid, 999}, 0, {}});
  missing.outputs.push_back(TxOut{1, keys[3].account_id()});
  missing.sign_all({keys[2]}, rng);
  UtxoTxList txs{
      UtxoTransaction::coinbase(miner, chain.params().block_reward, 1),
      make_spend(1, 2, 100'000), missing};
  auto res = chain.submit(seal_block(chain, tip, std::move(txs), miner));
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "missing-utxo");
  EXPECT_EQ(chain.tip_hash(), tip);
  EXPECT_NE(chain.utxo_set().generation(), before);
  EXPECT_EQ(chain.utxo_set().total_value(), 400'000u);
}

TEST_F(BlockchainTest, InBlockSpendOfEarlierOutputConnects) {
  // The second payment spends the output the first one created in the
  // same block.
  const UtxoTransaction hop1 = make_spend(1, 2, 100'000);
  UtxoTransaction hop2;
  hop2.inputs.push_back(TxIn{Outpoint{hop1.id(), 0}, 0, {}});
  hop2.outputs.push_back(TxOut{100'000, keys[3].account_id()});
  hop2.sign_all({keys[2]}, rng);
  UtxoTxList txs{
      UtxoTransaction::coinbase(miner, chain.params().block_reward, 1), hop1,
      hop2};
  auto res =
      chain.submit(seal_block(chain, chain.tip_hash(), std::move(txs), miner));
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res->outcome, Accept::kConnected);
  EXPECT_FALSE(chain.utxo_set().contains(Outpoint{hop1.id(), 0}));
  EXPECT_TRUE(chain.utxo_set().contains(Outpoint{hop2.id(), 0}));
  EXPECT_EQ(chain.utxo_set().total_value(),
            400'000u + chain.params().block_reward);
}

TEST_F(BlockchainTest, OrphanHeldUntilParentArrives) {
  Block b1 = extend_tip();
  // Build b2 on top of b1 without submitting b1 (need a temp chain).
  Blockchain scratch(cheap_pow_utxo(), fund_all(keys, 100'000));
  ASSERT_TRUE(scratch.submit(b1).ok());
  Block b2 = seal_empty_utxo(scratch, miner, b1.hash());

  auto res = chain.submit(b2);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->outcome, Accept::kOrphaned);
  EXPECT_EQ(chain.height(), 0u);

  ASSERT_TRUE(chain.submit(b1).ok());
  // b2 should have been adopted from the orphan pool automatically.
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.tip_hash(), b2.hash());
}

TEST_F(BlockchainTest, SoftForkAndReorg) {
  // Fig. 4: two blocks claim the same predecessor.
  Block a = seal_empty_utxo(chain, keys[0].account_id(), chain.tip_hash());
  Block b = seal_empty_utxo(chain, keys[1].account_id(), chain.tip_hash());
  ASSERT_NE(a.hash(), b.hash());

  ASSERT_EQ(chain.submit(a)->outcome, Accept::kConnected);
  // Same work: first-seen wins, the rival parks on a side chain.
  ASSERT_EQ(chain.submit(b)->outcome, Accept::kSideChain);
  EXPECT_EQ(chain.tip_hash(), a.hash());
  EXPECT_EQ(chain.fork_stats().side_chain_blocks, 1u);

  // A block on top of `b` makes that branch heavier -> reorg.
  Blockchain scratch(cheap_pow_utxo(), fund_all(keys, 100'000));
  ASSERT_TRUE(scratch.submit(b).ok());
  Block b2 = seal_empty_utxo(scratch, keys[1].account_id(), b.hash());

  auto res = chain.submit(b2);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res->outcome, Accept::kReorged);
  EXPECT_EQ(res->reorg_depth, 1u);
  EXPECT_EQ(chain.tip_hash(), b2.hash());
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.fork_stats().reorgs, 1u);
  EXPECT_EQ(chain.fork_stats().max_reorg_depth, 1u);
  // Orphaned miner's coinbase is gone from the UTXO set.
  EXPECT_TRUE(chain.utxo_set().find_owned(keys[0].account_id()).size() == 1);
}

TEST_F(BlockchainTest, ReorgRevertsAndReplaysState) {
  // Branch A spends key1 -> key2; branch B (winner) leaves it unspent.
  UtxoTransaction tx = make_spend(1, 2, 70'000);
  const Block* tip = chain.find(chain.tip_hash());
  UtxoTxList txs_a{UtxoTransaction::coinbase(
                       miner, chain.params().block_reward,
                       tip->header.height + 1),
                   tx};
  Block a = seal_block(chain, chain.tip_hash(), std::move(txs_a), miner);
  ASSERT_TRUE(chain.submit(a).ok());
  EXPECT_EQ(chain.utxo_set().find_owned(keys[2].account_id()).size(), 2u);

  Blockchain scratch(cheap_pow_utxo(), fund_all(keys, 100'000));
  Block b1 = seal_empty_utxo(scratch, keys[3].account_id(),
                             scratch.tip_hash());
  ASSERT_TRUE(scratch.submit(b1).ok());
  Block b2 = seal_empty_utxo(scratch, keys[3].account_id(), b1.hash());

  ASSERT_TRUE(chain.submit(b1).ok());
  auto res = chain.submit(b2);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->outcome, Accept::kReorged);
  // The spend rolled back with branch A.
  EXPECT_EQ(chain.utxo_set().find_owned(keys[2].account_id()).size(), 1u);
  EXPECT_EQ(chain.confirmations(tx.id()), 0u);
}

TEST_F(BlockchainTest, ConfirmationsDeepen) {
  UtxoTransaction tx = make_spend(1, 2, 10'000);
  UtxoTxList txs{UtxoTransaction::coinbase(miner, chain.params().block_reward,
                                           1),
                 tx};
  ASSERT_TRUE(chain.submit(
      seal_block(chain, chain.tip_hash(), std::move(txs), miner)).ok());
  EXPECT_EQ(chain.confirmations(tx.id()), 1u);

  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(chain.submit(extend_tip()).ok());
  // Six blocks deep: Bitcoin's confirmation rule satisfied (paper §IV-A).
  EXPECT_EQ(chain.confirmations(tx.id()), 6u);
  EXPECT_GE(chain.confirmations(tx.id()), chain.params().confirmation_depth);
}

TEST_F(BlockchainTest, FinalityBlocksDeepReorg) {
  Block a1 = extend_tip();
  ASSERT_TRUE(chain.submit(a1).ok());
  ASSERT_TRUE(chain.finalize(a1.hash()).ok());

  // A heavier branch from genesis must be refused (finality violation).
  Blockchain scratch(cheap_pow_utxo(), fund_all(keys, 100'000));
  Block b1 = seal_empty_utxo(scratch, keys[1].account_id(),
                             scratch.tip_hash());
  ASSERT_TRUE(scratch.submit(b1).ok());
  Block b2 = seal_empty_utxo(scratch, keys[1].account_id(), b1.hash());
  ASSERT_TRUE(scratch.submit(b2).ok());

  ASSERT_TRUE(chain.submit(b1).ok());  // side chain, fine
  auto res = chain.submit(b2);         // would reorg below finalized
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "finality-violation");
  EXPECT_EQ(chain.tip_hash(), a1.hash());
}

TEST_F(BlockchainTest, RenderTreeShowsBranches) {
  Block a = extend_tip();
  ASSERT_TRUE(chain.submit(a).ok());
  Block rival = seal_empty_utxo(chain, keys[1].account_id(),
                                chain.at_height(0)->hash());
  ASSERT_TRUE(chain.submit(rival).ok());
  const std::string tree = chain.render_tree();
  EXPECT_NE(tree.find("h=0"), std::string::npos);
  EXPECT_NE(tree.find("h=1"), std::string::npos);
}

// ------------------------------------------- block-level bad signatures

/// Re-solves a block whose body was edited after sealing (merkle root and
/// header hash change; the PoW payload is re-derived from scratch).
void reseal(Block& b) {
  b.header.merkle_root = b.compute_merkle_root();
  b.header.invalidate_digests();
  for (std::uint64_t nonce = 0;; ++nonce) {
    b.header.nonce = nonce;
    if (meets_target(b.header.pow_digest(), b.header.difficulty)) break;
  }
}

TEST(TamperedSignature, UtxoBlockRejected) {
  const auto keys = make_keys(2);
  const GenesisSpec genesis = fund_all(keys, 1'000'000);
  const crypto::AccountId miner = keys[0].account_id();
  Rng rng(5);
  Blockchain chain(cheap_pow_utxo(), genesis);

  const auto [coin, out] = chain.utxo_set().find_owned(miner).front();
  UtxoTransaction spend;
  spend.inputs.push_back(TxIn{coin, keys[0].public_key(), {}});
  spend.outputs.push_back(TxOut{out.value, keys[1].account_id()});
  spend.sign_all({keys[0]}, rng);
  const Block good = seal_block(
      chain, chain.tip_hash(),
      UtxoTxList{
          UtxoTransaction::coinbase(miner, chain.params().block_reward, 1),
          spend},
      miner);
  ASSERT_TRUE(chain.submit(good).ok());

  // The child extends `good` (so rejection happens in the connect phase,
  // not on a side chain) spending one of keys[1]'s coins; its signature
  // gets one bit flipped and the block is resealed so only the state
  // phase can reject it.
  const auto [coin2, out2] =
      chain.utxo_set().find_owned(keys[1].account_id()).front();
  UtxoTransaction spend2;
  spend2.inputs.push_back(TxIn{coin2, keys[1].public_key(), {}});
  spend2.outputs.push_back(TxOut{out2.value, keys[0].account_id()});
  spend2.sign_all({keys[1]}, rng);
  Block bad = seal_block(
      chain, chain.tip_hash(),
      UtxoTxList{
          UtxoTransaction::coinbase(miner, chain.params().block_reward, 2),
          spend2},
      miner);
  std::get<UtxoTxList>(bad.txs)[1].inputs[0].signature.s ^= 1;
  std::get<UtxoTxList>(bad.txs)[1].invalidate_digests();
  reseal(bad);

  const BlockHash tip = chain.tip_hash();
  auto res = chain.submit(bad);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-signature");
  EXPECT_EQ(chain.tip_hash(), tip);
}

TEST(TamperedSignature, AccountBlockRejected) {
  const auto keys = make_keys(2);
  const crypto::AccountId proposer = keys[0].account_id();
  Rng rng(6);
  Blockchain chain(testutil::cheap_pow_account(), fund_all(keys, 1'000'000));

  auto make_payment = [&](std::uint64_t nonce) {
    AccountTransaction tx;
    tx.to = keys[1].account_id();
    tx.value = 500;
    tx.nonce = nonce;
    tx.gas_limit = tx.intrinsic_gas();
    tx.gas_price = 1;
    tx.sign(keys[0], rng);
    return tx;
  };

  const Block good = testutil::seal_account_tip(
      chain, AccountTxList{make_payment(0)}, proposer);
  ASSERT_TRUE(chain.submit(good).ok());
  Block bad = testutil::seal_account_tip(
      chain, AccountTxList{make_payment(1)}, proposer);
  std::get<AccountTxList>(bad.txs)[0].signature.s ^= 1;
  std::get<AccountTxList>(bad.txs)[0].invalidate_digests();
  reseal(bad);

  const BlockHash tip = chain.tip_hash();
  auto res = chain.submit(bad);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-signature");
  EXPECT_EQ(chain.tip_hash(), tip);
}

TEST(Difficulty, RetargetMovesTowardTarget) {
  ChainParams p = bitcoin_like();
  // Blocks came twice as fast as intended -> difficulty doubles.
  EXPECT_NEAR(retarget_difficulty(p, 1000.0, p.block_interval * 100 / 2, 100),
              2000.0, 1e-6);
  // Twice as slow -> halves.
  EXPECT_NEAR(retarget_difficulty(p, 1000.0, p.block_interval * 100 * 2, 100),
              500.0, 1e-6);
}

TEST(Difficulty, ClampLimitsSwing) {
  ChainParams p = bitcoin_like();  // clamp 4x
  EXPECT_NEAR(retarget_difficulty(p, 1000.0, 1e-9, 100), 4000.0, 1e-3);
  EXPECT_NEAR(retarget_difficulty(p, 1000.0, 1e12, 100), 250.0, 1e-6);
}

TEST(Difficulty, RetargetAppliedAtWindow) {
  ChainParams p = testutil::cheap_pow_utxo();
  p.retarget_window = 4;
  p.initial_difficulty = 8.0;
  auto keys = make_keys(1);
  Blockchain chain(p, fund_all(keys, 1000));

  // Mine 3 blocks with timestamps far apart (slow) -> at height 4 the
  // difficulty must drop.
  double t = 0;
  for (int i = 0; i < 3; ++i) {
    t += p.block_interval * 10;  // 10x slower than target
    UtxoTxList txs{UtxoTransaction::coinbase(keys[0].account_id(),
                                             p.block_reward,
                                             chain.height() + 1)};
    Block b = seal_block(chain, chain.tip_hash(), std::move(txs),
                         keys[0].account_id(), t);
    ASSERT_TRUE(chain.submit(b).ok());
  }
  const double next = chain.next_difficulty(chain.tip_hash());
  EXPECT_LT(next, 8.0);
  EXPECT_GE(next, 8.0 / p.retarget_clamp - 1e-9);
}

}  // namespace
}  // namespace dlt::chain
