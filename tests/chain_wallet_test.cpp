// The chain cluster's UTXO wallet against the rescan it replaced.
//
// ChainTraits keeps each workload account's spendable coins as a list in
// node 0's for_each_owned order minus the reserved outpoints, plus a
// cursor, and rebuilds a list only when node 0's UtxoSet::generation()
// moves or an eviction releases one of the account's reservations. These
// tests recompute, before every UTXO submission, the pick of the walk each
// payment used to make: for_each_owned, skipping reserved outpoints, up to
// the first coin that covers amount + fee. After the submission the
// outpoints newly added to the reserved set must be exactly that pick.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"

namespace dlt::core {
namespace {

class RescanOracle {
 public:
  explicit RescanOracle(ChainCluster& cluster) : c_(cluster) {}

  /// Runs `submit`, one payment from `from` that needs `need` in inputs,
  /// and checks the coins it reserved against the rescan's pick.
  /// `submit` returns whether node 0 accepted the payment.
  template <typename Submit>
  void check(std::size_t from, chain::Amount need, Submit&& submit) {
    const std::unordered_set<chain::Outpoint>& reserved = c_.state().reserved;
    std::vector<chain::Outpoint> pick;
    chain::Amount gathered = 0;
    c_.node(0).chain().utxo_set().for_each_owned(
        c_.account(from).account_id(),
        [&](const chain::Outpoint& op, const chain::TxOut& out) {
          if (reserved.count(op)) return true;
          pick.push_back(op);
          gathered += out.value;
          return gathered < need;
        });
    const bool covered = gathered >= need;
    const std::unordered_set<chain::Outpoint> before = reserved;

    const bool accepted = submit();

    std::vector<chain::Outpoint> added;
    for (const chain::Outpoint& op : reserved)
      if (!before.count(op)) added.push_back(op);
    std::sort(pick.begin(), pick.end());
    std::sort(added.begin(), added.end());
    ++payments_;
    if (!covered) {
      EXPECT_FALSE(accepted) << "payment " << payments_;
      EXPECT_TRUE(added.empty()) << "payment " << payments_;
      return;
    }
    if (!accepted) {
      EXPECT_TRUE(added.empty()) << "payment " << payments_;
      return;
    }
    ++accepted_;
    EXPECT_EQ(added, pick) << "payment " << payments_;
    if (pick.size() > 1) ++multi_input_;
    for (const chain::Outpoint& op : pick)
      if (ever_reserved_.count(op)) {
        ++released_repicked_;
        break;
      }
    ever_reserved_.insert(pick.begin(), pick.end());
  }

  std::size_t payments() const { return payments_; }
  std::size_t accepted() const { return accepted_; }
  /// Accepted payments that spent more than one coin.
  std::size_t multi_input() const { return multi_input_; }
  /// Accepted payments that spent a coin an earlier payment had reserved
  /// and an eviction had released again.
  std::size_t released_repicked() const { return released_repicked_; }

 private:
  ChainCluster& c_;
  std::unordered_set<chain::Outpoint> ever_reserved_;
  std::size_t payments_ = 0;
  std::size_t accepted_ = 0;
  std::size_t multi_input_ = 0;
  std::size_t released_repicked_ = 0;
};

// (a) Closed loop past the block cap: the backlog piles up reserved coins,
// received coins worth 1-100 force payments with several inputs, and two
// seconds of link latency against ten-second blocks make node 0 reorg.
TEST(ChainWallet, ClosedLoopPicksMatchRescanThroughReorgs) {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 10.0;
  cfg.params.retarget_window = 0;
  cfg.params.max_block_bytes = 4000;
  cfg.node_count = 4;
  cfg.miner_count = 4;
  cfg.total_hashrate = 1e6 / 10.0;
  cfg.account_count = 10;
  cfg.initial_balance = 3000;
  cfg.genesis_outputs_per_account = 30;
  cfg.link = net::LinkParams{2.0, 0.5, 1e6};
  cfg.seed = 31;
  cfg.obs.trace_capacity = 0;
  ChainCluster cluster(cfg);
  cluster.start();

  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 4.0;
  wl.duration = 300.0;
  wl.pick = AccountPick::kUniform;
  wl.min_amount = 1;
  wl.max_amount = 100;
  Rng wl_rng(8);
  const std::vector<PaymentEvent> events = generate_payments(wl, wl_rng);
  RescanOracle oracle(cluster);
  auto pay = [&](const PaymentEvent& ev) {
    const auto amount = static_cast<chain::Amount>(ev.amount);
    oracle.check(ev.from, amount + 1000, [&] {
      return cluster.submit_payment(ev.from, ev.to, amount).ok();
    });
  };
  for (const PaymentEvent& ev : events)
    cluster.simulation().schedule_at(ev.time, [&pay, &ev] { pay(ev); });
  cluster.run_for(wl.duration + 60.0);

  const RunMetrics m = cluster.metrics();
  EXPECT_GT(m.reorgs, 0u);
  EXPECT_GT(m.confirmed, 0u);
  EXPECT_GT(m.pending_end, 0u);  // past the cap: a backlog remains
  EXPECT_EQ(oracle.payments(), m.submitted + m.rejected);
  EXPECT_GT(oracle.accepted(), oracle.payments() / 2);
  EXPECT_GT(oracle.multi_input(), 10u);
}

// (b) The capacity-capped pool of TrafficDifferential.ChainUtxoMatrix,
// with arrivals this test schedules itself: fee-market evictions release
// reservations, and the senders re-spend the released coins.
TEST(ChainWallet, TrafficPicksMatchRescanThroughEvictions) {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 2.0;
  cfg.params.confirmation_depth = 3;
  cfg.node_count = 3;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / 2.0;
  cfg.account_count = 12;
  cfg.initial_balance = 1'000'000'000;
  cfg.genesis_outputs_per_account = 80;
  cfg.seed = 78;
  cfg.obs.trace_capacity = 0;
  cfg.traffic.enabled = true;
  cfg.traffic.rate = 50.0;
  cfg.traffic.duration = 15.0;
  cfg.traffic.queue_capacity_bytes = 8 * 1024;
  ChainCluster cluster(cfg);
  cluster.start();

  const TrafficConfig& tc = cfg.traffic;
  std::vector<TrafficEvent> events;
  TrafficSource source(tc, cfg.account_count);
  for (TrafficEvent ev; source.next(ev);) events.push_back(ev);
  RescanOracle oracle(cluster);
  auto pay = [&](const TrafficEvent& ev) {
    const auto fee = static_cast<chain::Amount>(
        tc.base_fee * fee_class_multiplier(ev.fee_class));
    oracle.check(ev.from, static_cast<chain::Amount>(ev.amount) + fee, [&] {
      AdmissionStats& adm = cluster.admission();
      const std::uint64_t refused = adm.rejected + adm.backpressured;
      ++adm.submitted;
      ChainTraits::submit_traffic(cluster, ev);
      return adm.rejected + adm.backpressured == refused;
    });
  };
  for (const TrafficEvent& ev : events)
    cluster.simulation().schedule_at(ev.time, [&pay, &ev] { pay(ev); });
  cluster.run_for(tc.duration + 2.0 * 5.0);

  const AdmissionStats& adm = cluster.admission();
  EXPECT_TRUE(adm.reconciles());
  EXPECT_GT(adm.evicted, 0u);
  EXPECT_EQ(oracle.payments(), adm.submitted);
  EXPECT_GT(oracle.accepted(), 0u);
  EXPECT_GT(oracle.released_repicked(), 0u);
}

}  // namespace
}  // namespace dlt::core
