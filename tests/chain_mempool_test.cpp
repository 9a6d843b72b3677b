// Mempools: fee priority, conflicts, nonce queues, reorg reinjection
// (paper §IV-A, §VI).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "chain/mempool.hpp"
#include "chain_test_util.hpp"

namespace dlt::chain {
namespace {

using testutil::make_keys;

class UtxoMempoolTest : public ::testing::Test {
 protected:
  UtxoMempoolTest() : keys(make_keys(4)), rng(1) {
    UtxoTransaction mint;
    for (int i = 0; i < 4; ++i)
      mint.outputs.push_back(TxOut{100'000, keys[static_cast<std::size_t>(i)].account_id()});
    mint_id = mint.id();
    utxo.apply_transaction(mint);
  }

  UtxoTransaction spend(std::size_t who, Amount out_value) {
    UtxoTransaction tx;
    tx.inputs.push_back(
        TxIn{Outpoint{mint_id, static_cast<std::uint32_t>(who)}, 0, {}});
    tx.outputs.push_back(TxOut{out_value, keys[(who + 1) % 4].account_id()});
    tx.sign_all({keys[who]}, rng);
    return tx;
  }

  std::vector<crypto::KeyPair> keys;
  Rng rng;
  UtxoSet utxo;
  TxId mint_id;
  UtxoMempool pool;
};

TEST_F(UtxoMempoolTest, AddAndSelect) {
  auto tx = spend(0, 99'000);  // fee 1000
  ASSERT_TRUE(pool.add(tx, utxo, 1).ok());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(tx.id()));
  auto selected = pool.select(1'000'000);
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].id(), tx.id());
}

TEST_F(UtxoMempoolTest, RejectsInvalid) {
  auto tx = spend(0, 200'000);  // inflation
  EXPECT_FALSE(pool.add(tx, utxo, 1).ok());
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(UtxoMempoolTest, RejectsPoolConflict) {
  auto tx1 = spend(0, 99'000);
  auto tx2 = spend(0, 98'000);  // same input, different tx
  ASSERT_TRUE(pool.add(tx1, utxo, 1).ok());
  auto st = pool.add(tx2, utxo, 1);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "mempool-conflict");
}

TEST_F(UtxoMempoolTest, CappedPoolReplacesByStrictlyHigherFeeRate) {
  std::vector<TxId> evicted;
  pool.set_evict_handler(
      [&](const UtxoTransaction& tx) { evicted.push_back(tx.id()); });
  pool.set_capacity(1 << 20);  // a capped pool runs replace-by-fee
  const auto first = spend(0, 99'000);  // fee 1000
  ASSERT_TRUE(pool.add(first, utxo, 1).ok());

  // The same input at a lower fee rate cannot displace the pooled spend.
  auto st = pool.add(spend(0, 99'500), utxo, 1);  // fee 500
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "mempool-conflict");

  // A strictly higher fee rate replaces it, through the evict handler.
  const auto richer = spend(0, 98'000);  // fee 2000
  ASSERT_TRUE(pool.add(richer, utxo, 1).ok());
  EXPECT_FALSE(pool.contains(first.id()));
  EXPECT_TRUE(pool.contains(richer.id()));
  EXPECT_EQ(evicted, std::vector<TxId>{first.id()});
}

TEST_F(UtxoMempoolTest, SelectionPrefersFeeRate) {
  auto cheap = spend(0, 99'900);   // fee 100
  auto rich = spend(1, 90'000);    // fee 10000
  auto mid = spend(2, 99'000);     // fee 1000
  ASSERT_TRUE(pool.add(cheap, utxo, 1).ok());
  ASSERT_TRUE(pool.add(rich, utxo, 1).ok());
  ASSERT_TRUE(pool.add(mid, utxo, 1).ok());

  // Budget for only one transaction: the richest fee must win.
  auto selected = pool.select(cheap.serialized_size());
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].id(), rich.id());
}

TEST_F(UtxoMempoolTest, ByteBudgetRespected) {
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(pool.add(spend(i, 99'000), utxo, 1).ok());
  const std::size_t one = spend(0, 99'000).serialized_size();
  auto selected = pool.select(one * 2);
  EXPECT_EQ(selected.size(), 2u);
}

TEST_F(UtxoMempoolTest, RemoveIncludedDropsConflicts) {
  auto tx1 = spend(0, 99'000);
  ASSERT_TRUE(pool.add(tx1, utxo, 1).ok());
  // A different tx spending the same coin got mined instead.
  auto rival = spend(0, 95'000);
  pool.remove_included({rival});
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.pending_bytes(), 0u);
}

TEST_F(UtxoMempoolTest, ReinjectAfterDisconnect) {
  auto tx = spend(0, 99'000);
  // Simulate: tx was mined (not in pool), then its block was orphaned.
  pool.reinject({tx}, utxo, 1);
  EXPECT_TRUE(pool.contains(tx.id()));
  // Coinbases never come back.
  auto cb = UtxoTransaction::coinbase(keys[0].account_id(), 50, 3);
  pool.reinject({cb}, utxo, 3);
  EXPECT_FALSE(pool.contains(cb.id()));
}

// --- fee-market eviction edge cases (ISSUE 10) --------------------------

TEST_F(UtxoMempoolTest, ExactCapacityBoundaryAdmitsWithoutEviction) {
  std::vector<TxId> evicted;
  pool.set_evict_handler(
      [&](const UtxoTransaction& tx) { evicted.push_back(tx.id()); });
  const auto t0 = spend(0, 99'900);  // fee 100, the eviction floor
  const auto t1 = spend(1, 99'800);  // fee 200
  const std::uint64_t sz = t0.serialized_size();
  ASSERT_EQ(sz, t1.serialized_size());
  pool.set_capacity(2 * sz);

  // Filling the pool to EXACTLY its byte capacity is not an overflow.
  ASSERT_TRUE(pool.add(t0, utxo, 1).ok());
  ASSERT_TRUE(pool.add(t1, utxo, 1).ok());
  EXPECT_EQ(pool.pending_bytes(), pool.capacity());
  EXPECT_TRUE(evicted.empty());

  // One byte over: exactly one victim — the worst fee rate — makes room.
  const auto rich = spend(2, 90'000);  // fee 10000
  ASSERT_TRUE(pool.add(rich, utxo, 1).ok());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], t0.id());
  EXPECT_FALSE(pool.contains(t0.id()));
  EXPECT_TRUE(pool.contains(t1.id()));
  EXPECT_TRUE(pool.contains(rich.id()));
  EXPECT_EQ(pool.pending_bytes(), pool.capacity());
}

TEST_F(UtxoMempoolTest, FeeRateTieFifoPreservedAcrossEvictions) {
  std::vector<TxId> evicted;
  pool.set_evict_handler(
      [&](const UtxoTransaction& tx) { evicted.push_back(tx.id()); });
  const auto t0 = spend(0, 99'500);  // identical fee 500 → identical rate
  const auto t1 = spend(1, 99'500);
  const auto t2 = spend(2, 99'500);
  const std::uint64_t sz = t0.serialized_size();
  pool.set_capacity(3 * sz);
  ASSERT_TRUE(pool.add(t0, utxo, 1).ok());
  ASSERT_TRUE(pool.add(t1, utxo, 1).ok());
  ASSERT_TRUE(pool.add(t2, utxo, 1).ok());

  // Overflow inside a rate tie evicts the NEWEST of the tie only.
  const auto rich = spend(3, 90'000);
  ASSERT_TRUE(pool.add(rich, utxo, 1).ok());
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], t2.id());

  // The surviving tie keeps its original FIFO order under selection.
  const auto got = pool.select(1 << 20);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].id(), rich.id());
  EXPECT_EQ(got[1].id(), t0.id());
  EXPECT_EQ(got[2].id(), t1.id());
}

TEST_F(UtxoMempoolTest, ReadmissionAfterEvictionGetsFreshSeq) {
  const auto t0 = spend(0, 99'500);  // fee 500
  const auto t1 = spend(1, 99'500);  // fee 500, same rate as t0
  const std::uint64_t sz = t0.serialized_size();
  pool.set_capacity(2 * sz);
  ASSERT_TRUE(pool.add(t0, utxo, 1).ok());
  ASSERT_TRUE(pool.add(t1, utxo, 1).ok());

  // Evict t1 (newest of the rate tie) with a richer arrival.
  const auto rich = spend(2, 90'000);
  ASSERT_TRUE(pool.add(rich, utxo, 1).ok());
  ASSERT_FALSE(pool.contains(t1.id()));

  // Make room, admit a fresh same-rate tx, then re-admit t1. If t1 kept
  // its original admission sequence it would outrank t2 in the FIFO tie;
  // a fresh seq puts it at the back of the tie instead.
  pool.set_capacity(4 * sz);
  const auto t2 = spend(3, 99'500);
  ASSERT_TRUE(pool.add(t2, utxo, 1).ok());
  ASSERT_TRUE(pool.add(t1, utxo, 1).ok());
  const auto got = pool.select(1 << 20);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].id(), rich.id());
  EXPECT_EQ(got[1].id(), t0.id());
  EXPECT_EQ(got[2].id(), t2.id());
  EXPECT_EQ(got[3].id(), t1.id());  // re-admission is a NEW arrival
}

TEST_F(UtxoMempoolTest, CascadeEvictionDropsChainedChild) {
  std::vector<TxId> evicted;
  pool.set_evict_handler(
      [&](const UtxoTransaction& tx) { evicted.push_back(tx.id()); });

  // parent (fee 200, the pool's worst rate) pays keys[1]; child spends
  // the parent's unconfirmed output. The UTXO view sees the parent (the
  // cluster's mempool-aware view) while the pool still holds it.
  const auto parent = spend(0, 99'800);
  ASSERT_TRUE(pool.add(parent, utxo, 1).ok());
  utxo.apply_transaction(parent);
  UtxoTransaction child;
  child.inputs.push_back(TxIn{Outpoint{parent.id(), 0}, 0, {}});
  child.outputs.push_back(TxOut{99'000, keys[2].account_id()});
  child.sign_all({keys[1]}, rng);
  ASSERT_TRUE(pool.add(child, utxo, 1).ok());

  pool.set_capacity(pool.pending_bytes());  // pool exactly full
  const auto rich = spend(2, 90'000);
  ASSERT_TRUE(pool.add(rich, utxo, 1).ok());

  // Evicting the parent took its pooled descendant with it — children
  // first, so no dangling claim ever exists.
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0], child.id());
  EXPECT_EQ(evicted[1], parent.id());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(rich.id()));
  EXPECT_EQ(pool.pending_bytes(), rich.serialized_size());
}

class AccountMempoolTest : public ::testing::Test {
 protected:
  AccountMempoolTest() : keys(make_keys(3)), rng(2) {
    state = WorldState{}
                .credit(keys[0].account_id(), 10'000'000)
                .credit(keys[1].account_id(), 10'000'000);
  }

  AccountTransaction tx_with(std::size_t who, std::uint64_t nonce,
                             Amount gas_price) {
    AccountTransaction tx;
    tx.to = keys[2].account_id();
    tx.value = 100;
    tx.nonce = nonce;
    tx.gas_limit = 21'000;
    tx.gas_price = gas_price;
    tx.sign(keys[who], rng);
    return tx;
  }

  std::vector<crypto::KeyPair> keys;
  Rng rng;
  WorldState state;
  AccountMempool pool;
};

TEST_F(AccountMempoolTest, NonceOrderEnforced) {
  ASSERT_TRUE(pool.add(tx_with(0, 0, 1), state).ok());
  ASSERT_TRUE(pool.add(tx_with(0, 1, 1), state).ok());
  auto gap = pool.add(tx_with(0, 5, 1), state);
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.error().code, "nonce-gap");
  auto stale = pool.add(tx_with(0, 0, 2), state);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error().code, "duplicate-nonce");
}

TEST_F(AccountMempoolTest, CappedPoolReplacesSameNonceAtHigherPrice) {
  std::vector<Hash256> evicted;
  pool.set_evict_handler(
      [&](const AccountTransaction& tx) { evicted.push_back(tx.id()); });
  pool.set_capacity(1 << 20);  // a capped pool runs same-nonce replacement
  const auto first = tx_with(0, 0, 5);
  ASSERT_TRUE(pool.add(first, state).ok());

  // An equal gas price never replaces.
  auto same = pool.add(tx_with(0, 0, 5), state);
  ASSERT_FALSE(same.ok());
  EXPECT_EQ(same.error().code, "duplicate-nonce");

  // A strictly higher one takes the nonce slot, through the evict handler.
  const auto higher = tx_with(0, 0, 6);
  ASSERT_TRUE(pool.add(higher, state).ok());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_FALSE(pool.contains(first.id()));
  EXPECT_TRUE(pool.contains(higher.id()));
  EXPECT_EQ(evicted, std::vector<Hash256>{first.id()});
}

TEST_F(AccountMempoolTest, SelectRespectsGasLimitAndPrice) {
  ASSERT_TRUE(pool.add(tx_with(0, 0, 5), state).ok());
  ASSERT_TRUE(pool.add(tx_with(0, 1, 9), state).ok());
  ASSERT_TRUE(pool.add(tx_with(1, 0, 7), state).ok());

  // Budget for two 21k txs.
  auto selected = pool.select(42'000, state);
  ASSERT_EQ(selected.size(), 2u);
  // Sender-0 nonce order must hold even though its second tx pays more.
  EXPECT_EQ(selected[0].gas_price, 7u);  // key1's tx (highest executable)
  EXPECT_EQ(selected[1].gas_price, 5u);  // key0 nonce 0 before nonce 1
}

TEST_F(AccountMempoolTest, SelectAllWhenRoomy) {
  ASSERT_TRUE(pool.add(tx_with(0, 0, 1), state).ok());
  ASSERT_TRUE(pool.add(tx_with(0, 1, 1), state).ok());
  ASSERT_TRUE(pool.add(tx_with(1, 0, 2), state).ok());
  auto selected = pool.select(0 /* unlimited */, state);
  EXPECT_EQ(selected.size(), 3u);
  EXPECT_EQ(pool.pending_gas(), 3 * 21'000u);
}

TEST_F(AccountMempoolTest, RemoveIncludedAdvancesQueue) {
  auto t0 = tx_with(0, 0, 1);
  auto t1 = tx_with(0, 1, 1);
  ASSERT_TRUE(pool.add(t0, state).ok());
  ASSERT_TRUE(pool.add(t1, state).ok());
  pool.remove_included({t0});
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.contains(t1.id()));
}

TEST_F(AccountMempoolTest, RevalidateDropsStaleNonces) {
  auto t0 = tx_with(0, 0, 1);
  ASSERT_TRUE(pool.add(t0, state).ok());
  // The chain advanced: sender nonce is now 1.
  WorldState advanced = state.with_account(
      keys[0].account_id(), AccountState{10'000'000, 1, 0});
  pool.revalidate(advanced);
  EXPECT_EQ(pool.size(), 0u);
}

TEST_F(AccountMempoolTest, ReinjectSortsByNonce) {
  auto t0 = tx_with(0, 0, 1);
  auto t1 = tx_with(0, 1, 1);
  // Deliberately out of order.
  pool.reinject({t1, t0}, state);
  EXPECT_EQ(pool.size(), 2u);
}

TEST_F(AccountMempoolTest, BadSignatureRejected) {
  auto tx = tx_with(0, 0, 1);
  tx.value = 999;
  tx.invalidate_digests();  // direct field writes bypass the digest memo
  EXPECT_FALSE(pool.add(tx, state).ok());
}

// --- differential: incremental indexes vs the old full-scan greedy ------

class MempoolDifferentialTest : public ::testing::Test {
 protected:
  MempoolDifferentialTest() : keys(make_keys(12)), rng(7) {
    UtxoTransaction mint;
    for (std::size_t i = 0; i < keys.size(); ++i)
      mint.outputs.push_back(TxOut{1'000'000, keys[i].account_id()});
    mint_id = mint.id();
    utxo.apply_transaction(mint);
  }

  UtxoTransaction spend(std::size_t who, Amount out_value) {
    UtxoTransaction tx;
    tx.inputs.push_back(
        TxIn{Outpoint{mint_id, static_cast<std::uint32_t>(who)}, 0, {}});
    tx.outputs.push_back(TxOut{out_value, keys[(who + 1) % keys.size()].account_id()});
    tx.sign_all({keys[who]}, rng);
    return tx;
  }

  // The pre-index selection algorithm, reimplemented verbatim: snapshot
  // the pool, sort by fee rate descending, greedy-pack skipping txs that
  // bust the byte budget.
  static std::vector<UtxoTransaction> legacy_select(
      const std::vector<std::pair<UtxoTransaction, double>>& entries,
      std::uint64_t max_bytes) {
    auto sorted = entries;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    std::vector<UtxoTransaction> out;
    std::uint64_t used = 0;
    for (const auto& [tx, rate] : sorted) {
      const std::uint64_t sz = tx.serialized_size();
      if (used + sz > max_bytes) continue;
      used += sz;
      out.push_back(tx);
    }
    return out;
  }

  std::vector<crypto::KeyPair> keys;
  Rng rng;
  UtxoSet utxo;
  TxId mint_id;
};

TEST_F(MempoolDifferentialTest, UtxoSelectMatchesLegacyGreedy) {
  // Distinct fee rates make the legacy order total, so the incremental
  // index must reproduce it transaction for transaction at every budget.
  UtxoMempool pool;
  std::vector<std::pair<UtxoTransaction, double>> reference;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Amount fee = 100 * (static_cast<Amount>(i * 7 % 12) + 1);
    auto tx = spend(i, 1'000'000 - fee);
    ASSERT_TRUE(pool.add(tx, utxo, 1).ok());
    reference.emplace_back(
        tx, static_cast<double>(fee) /
                static_cast<double>(tx.serialized_size()));
  }
  const std::uint64_t one = reference[0].first.serialized_size();
  for (std::uint64_t budget :
       {one / 2, one, one * 3, one * 7, one * 12, one * 100}) {
    const auto got = pool.select(budget);
    const auto want = legacy_select(reference, budget);
    ASSERT_EQ(got.size(), want.size()) << "budget " << budget;
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i].id(), want[i].id()) << "budget " << budget << " pos " << i;
  }
}

TEST_F(MempoolDifferentialTest, UtxoEqualRatesSelectFifo) {
  // Equal fee rates: the index breaks ties by admission order (the old
  // sort left this to container iteration order). FIFO is the documented
  // canonical behavior.
  UtxoMempool pool;
  std::vector<TxId> admitted;
  for (std::size_t i = 0; i < 6; ++i) {
    auto tx = spend(i, 1'000'000 - 500);  // identical fee, identical size
    ASSERT_TRUE(pool.add(tx, utxo, 1).ok());
    admitted.push_back(tx.id());
  }
  const auto got = pool.select(1 << 20);
  ASSERT_EQ(got.size(), admitted.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].id(), admitted[i]) << i;
}

TEST_F(MempoolDifferentialTest, UtxoSelectTracksRemovals) {
  // The incremental index must stay consistent through remove_included.
  UtxoMempool pool;
  std::vector<std::pair<UtxoTransaction, double>> reference;
  for (std::size_t i = 0; i < 8; ++i) {
    const Amount fee = 100 * (static_cast<Amount>(i) + 1);
    auto tx = spend(i, 1'000'000 - fee);
    ASSERT_TRUE(pool.add(tx, utxo, 1).ok());
    reference.emplace_back(
        tx, static_cast<double>(fee) /
                static_cast<double>(tx.serialized_size()));
  }
  // Mine the two richest.
  pool.remove_included({reference[7].first, reference[6].first});
  reference.erase(reference.begin() + 6, reference.end());
  const auto got = pool.select(1 << 20);
  const auto want = legacy_select(reference, 1 << 20);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].id(), want[i].id()) << i;
}

TEST_F(AccountMempoolTest, SelectMatchesReferenceScan) {
  // Heap-based pick vs the old O(senders) scan: with nonce chains per
  // sender and distinct gas prices the order is total; outputs must agree
  // at every gas budget.
  ASSERT_TRUE(pool.add(tx_with(0, 0, 50), state).ok());
  ASSERT_TRUE(pool.add(tx_with(0, 1, 90), state).ok());
  ASSERT_TRUE(pool.add(tx_with(0, 2, 10), state).ok());
  ASSERT_TRUE(pool.add(tx_with(1, 0, 70), state).ok());
  ASSERT_TRUE(pool.add(tx_with(1, 1, 30), state).ok());

  // Reference: repeatedly scan sender heads, take the highest-priced head
  // that fits the remaining gas.
  auto reference = [&](std::uint64_t gas_limit) {
    struct Head { std::size_t who; std::vector<AccountTransaction> q; std::size_t i = 0; };
    std::vector<Head> heads;
    heads.push_back({0, {tx_with(0, 0, 50), tx_with(0, 1, 90), tx_with(0, 2, 10)}});
    heads.push_back({1, {tx_with(1, 0, 70), tx_with(1, 1, 30)}});
    std::vector<AccountTransaction> out;
    std::uint64_t used = 0;
    for (;;) {
      Head* best = nullptr;
      for (auto& h : heads) {
        if (h.i >= h.q.size()) continue;
        if (used + h.q[h.i].gas_limit > gas_limit) continue;
        if (!best || h.q[h.i].gas_price > best->q[best->i].gas_price)
          best = &h;
      }
      if (!best) break;
      out.push_back(best->q[best->i]);
      used += best->q[best->i].gas_limit;
      ++best->i;
    }
    return out;
  };

  for (std::uint64_t budget : {21'000ull, 42'000ull, 63'000ull, 84'000ull,
                               105'000ull, 1'000'000ull}) {
    const auto got = pool.select(budget, state);
    const auto want = reference(budget);
    ASSERT_EQ(got.size(), want.size()) << "budget " << budget;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].nonce, want[i].nonce) << "budget " << budget;
      EXPECT_EQ(got[i].gas_price, want[i].gas_price) << "budget " << budget;
    }
  }
}

}  // namespace
}  // namespace dlt::chain
