// SPV light client (paper §II-A): header-chain validation and Merkle
// inclusion proofs against a real full node.
#include <gtest/gtest.h>

#include "chain/light_client.hpp"
#include "chain_test_util.hpp"

namespace dlt::chain {
namespace {

using testutil::cheap_pow_utxo;
using testutil::fund_all;
using testutil::make_keys;
using testutil::seal_block;
using testutil::seal_empty_utxo;

class LightClientTest : public ::testing::Test {
 protected:
  LightClientTest()
      : keys(make_keys(3)),
        chain(cheap_pow_utxo(), fund_all(keys, 100'000)),
        client(cheap_pow_utxo()),
        rng(5) {
    EXPECT_TRUE(client.set_genesis(chain.at_height(0)->header).ok());
  }

  /// Mines a block containing one payment and feeds its header to the
  /// client. Returns the payment's txid; the block is at chain.height().
  TxId grow_with_payment() {
    auto coins = chain.utxo_set().find_owned(keys[0].account_id());
    UtxoTransaction tx;
    tx.inputs.push_back(TxIn{coins[0].first, 0, {}});
    tx.outputs.push_back(TxOut{coins[0].second.value, keys[1].account_id()});
    tx.sign_all({keys[0]}, rng);
    const TxId id = tx.id();

    UtxoTxList txs{UtxoTransaction::coinbase(keys[2].account_id(),
                                             chain.params().block_reward,
                                             chain.height() + 1),
                   tx};
    Block b = seal_block(chain, chain.tip_hash(), std::move(txs),
                         keys[2].account_id());
    EXPECT_TRUE(chain.submit(b).ok());
    EXPECT_TRUE(client.accept_header(b.header).ok());
    // Swap ownership back for repeated use.
    std::swap(keys[0], keys[1]);
    return id;
  }

  void grow_empty(int n) {
    for (int i = 0; i < n; ++i) {
      Block b = seal_empty_utxo(chain, keys[2].account_id(),
                                chain.tip_hash());
      ASSERT_TRUE(chain.submit(b).ok());
      ASSERT_TRUE(client.accept_header(b.header).ok());
    }
  }

  std::vector<crypto::KeyPair> keys;
  Blockchain chain;
  LightClient client;
  Rng rng;
};

TEST_F(LightClientTest, GenesisRules) {
  LightClient fresh(cheap_pow_utxo());
  BlockHeader bogus = chain.at_height(0)->header;
  bogus.parent.v[0] = 1;  // has a parent -> not genesis
  EXPECT_FALSE(fresh.set_genesis(bogus).ok());
  EXPECT_TRUE(fresh.set_genesis(chain.at_height(0)->header).ok());
  EXPECT_FALSE(fresh.set_genesis(chain.at_height(0)->header).ok());
}

TEST_F(LightClientTest, FollowsHeaderChain) {
  grow_empty(5);
  EXPECT_EQ(client.height(), 5u);
  EXPECT_EQ(client.tip().hash(), chain.tip_hash());
  // A light client stores only headers: O(height), not the ledger (§V).
  EXPECT_EQ(client.stored_bytes(), 6 * BlockHeader::kSerializedSize);
}

TEST_F(LightClientTest, RejectsBadHeaders) {
  grow_empty(2);
  Block next = seal_empty_utxo(chain, keys[2].account_id(),
                               chain.tip_hash());

  BlockHeader wrong_parent = next.header;
  wrong_parent.parent.v[3] ^= 1;
  EXPECT_EQ(client.accept_header(wrong_parent).error().code, "wrong-parent");

  BlockHeader bad_pow = next.header;
  for (std::uint64_t n = 0;; ++n) {
    bad_pow.nonce = n;
    if (!meets_target(bad_pow.pow_digest(), bad_pow.difficulty)) break;
  }
  EXPECT_EQ(client.accept_header(bad_pow).error().code, "bad-pow");

  BlockHeader bad_diff = next.header;
  bad_diff.difficulty *= 0.5;  // claims an easier target than scheduled
  EXPECT_EQ(client.accept_header(bad_diff).error().code, "bad-difficulty");

  EXPECT_TRUE(client.accept_header(next.header).ok());
}

TEST_F(LightClientTest, VerifiesInclusionAndConfirmations) {
  const TxId txid = grow_with_payment();
  const std::uint32_t paid_at = chain.height();
  grow_empty(5);

  auto proof = make_inclusion_proof(chain, txid, paid_at);
  ASSERT_TRUE(proof.ok()) << proof.error().to_string();
  auto confirmations = client.verify_inclusion(*proof);
  ASSERT_TRUE(confirmations.ok()) << confirmations.error().to_string();
  // 1 block containing it + 5 on top = 6: Bitcoin's §IV-A threshold.
  EXPECT_EQ(*confirmations, 6u);
}

TEST_F(LightClientTest, RejectsForgedProofs) {
  const TxId txid = grow_with_payment();
  const std::uint32_t paid_at = chain.height();
  grow_empty(1);
  auto proof = make_inclusion_proof(chain, txid, paid_at);
  ASSERT_TRUE(proof.ok());

  InclusionProof tampered = *proof;
  tampered.txid.v[0] ^= 1;  // different transaction
  EXPECT_FALSE(client.verify_inclusion(tampered).ok());

  InclusionProof wrong_height = *proof;
  wrong_height.height += 1;  // claims a different block
  EXPECT_FALSE(client.verify_inclusion(wrong_height).ok());

  InclusionProof future = *proof;
  future.height = 999;
  EXPECT_EQ(client.verify_inclusion(future).error().code, "unknown-height");
}

TEST_F(LightClientTest, ProofUnavailableAfterPruning) {
  const TxId txid = grow_with_payment();
  const std::uint32_t paid_at = chain.height();
  grow_empty(8);
  chain.prune_bodies(2);
  auto proof = make_inclusion_proof(chain, txid, paid_at);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.error().code, "pruned");  // §V-A's trade-off, observed
}

TEST_F(LightClientTest, UnknownTxRejected) {
  grow_with_payment();
  const std::uint32_t paid_at = chain.height();
  grow_empty(2);
  TxId ghost;
  ghost.v[7] = 0x77;
  EXPECT_EQ(make_inclusion_proof(chain, ghost, paid_at).error().code,
            "unknown-tx");
  EXPECT_EQ(make_inclusion_proof(chain, ghost, chain.height() + 1)
                .error()
                .code,
            "unknown-block");
}

TEST_F(LightClientTest, TracksDifficultyRetarget) {
  // Client must compute the same retarget schedule as full nodes: per
  // block (window 1, ethereum_like) and per window of 4.
  for (const std::uint32_t window : {1u, 4u}) {
    SCOPED_TRACE(window);
    ChainParams p = cheap_pow_utxo();
    p.retarget_window = window;
    p.initial_difficulty = 8.0;
    auto ks = make_keys(1);
    Blockchain full(p, testutil::fund_all(ks, 1000));
    LightClient spv(p);
    ASSERT_TRUE(spv.set_genesis(full.at_height(0)->header).ok());

    double t = 0;
    for (int i = 0; i < 9; ++i) {
      t += p.block_interval * 3;  // slow blocks: difficulty must drop
      UtxoTxList txs{UtxoTransaction::coinbase(ks[0].account_id(),
                                               p.block_reward,
                                               full.height() + 1)};
      Block b = seal_block(full, full.tip_hash(), std::move(txs),
                           ks[0].account_id(), t);
      ASSERT_TRUE(full.submit(b).ok()) << i;
      ASSERT_TRUE(spv.accept_header(b.header).ok()) << i;
    }
    EXPECT_EQ(spv.next_difficulty(), full.next_difficulty(full.tip_hash()));
    EXPECT_LT(spv.tip().difficulty, 8.0);
  }
}

}  // namespace
}  // namespace dlt::chain
