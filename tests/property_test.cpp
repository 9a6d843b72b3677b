// Property-based sweeps across seeds and parameters: the invariants that
// must hold for ANY workload on every ledger implementation.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/adversary.hpp"
#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "tangle_oracle.hpp"

namespace dlt::core {
namespace {

// ---------------------------------------------------------------------------
// UTXO chain: value conservation and convergence across random workloads.

class UtxoChainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UtxoChainProperty, ConservationAndConvergence) {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.block_interval = 25.0;
  cfg.params.initial_difficulty = 1e6;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / 25.0;
  cfg.account_count = 12;
  cfg.initial_balance = 1'000'000;
  cfg.genesis_outputs_per_account = 8;
  cfg.seed = GetParam();
  ChainCluster cluster(cfg);
  cluster.start();

  Rng wl(GetParam() * 31 + 1);
  WorkloadConfig w;
  w.account_count = 12;
  w.tx_rate = 1.0;
  w.duration = 400.0;
  w.max_amount = 5000;
  cluster.schedule_workload(generate_payments(w, wl));
  cluster.run_for(700.0);

  // Conservation: UTXO total == genesis allocation + mined subsidies
  // minus fees claimed... fees flow INTO coinbases, so total value is
  // exactly genesis + height * reward + (fees paid - fees claimed == 0).
  const auto& bc = cluster.node(0).chain();
  const chain::Amount genesis_total = 12ull * 8ull * 1'000'000ull;
  chain::Amount fees_in_flight = 0;
  // Fees of transactions still in the mempool are not yet claimed; every
  // included tx's fee was claimed by its block's coinbase. Unclaimed fee
  // value simply remains in the senders' UTXOs until inclusion, so the
  // set total is exact:
  EXPECT_EQ(bc.utxo_set().total_value() + fees_in_flight,
            genesis_total + static_cast<chain::Amount>(bc.height()) *
                                bc.params().block_reward);

  cluster.run_for(200.0);
  EXPECT_TRUE(cluster.converged()) << "replicas diverged";

  // All replicas expose the same UTXO set value.
  for (std::size_t i = 1; i < cluster.node_count(); ++i)
    EXPECT_EQ(cluster.node(i).chain().utxo_set().total_value(),
              bc.utxo_set().total_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, UtxoChainProperty,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// Account chain: supply == genesis + rewards, nonces strictly sequential.

class AccountChainProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AccountChainProperty, SupplyAndNonceDiscipline) {
  ChainClusterConfig cfg;
  cfg.params = chain::ethereum_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e5;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e5 / 15.0;
  cfg.account_count = 10;
  cfg.initial_balance = 50'000'000;
  cfg.seed = GetParam();
  ChainCluster cluster(cfg);
  cluster.start();

  Rng wl(GetParam() * 17 + 5);
  WorkloadConfig w;
  w.account_count = 10;
  w.tx_rate = 2.0;
  w.duration = 300.0;
  cluster.schedule_workload(generate_payments(w, wl));
  cluster.run_for(500.0);

  const auto& bc = cluster.node(0).chain();
  EXPECT_EQ(bc.world_state().total_supply(),
            10ull * 50'000'000ull +
                static_cast<chain::Amount>(bc.height()) *
                    bc.params().block_reward);

  // Nonce discipline: walking the chain, each sender's nonces appear in
  // strictly increasing order with no gaps.
  std::map<crypto::AccountId, std::uint64_t> next_nonce;
  for (std::uint32_t h = 1; h <= bc.height(); ++h) {
    for (const auto& tx : bc.at_height(h)->account_txs()) {
      EXPECT_EQ(tx.nonce, next_nonce[tx.from]) << "h=" << h;
      next_nonce[tx.from] = tx.nonce + 1;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AccountChainProperty,
                         ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------------------
// Lattice: conservation, settlement progress, and convergence.

class LatticeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatticeProperty, ConservationAndConvergence) {
  LatticeClusterConfig cfg;
  cfg.node_count = 4;
  cfg.representative_count = 2;
  cfg.account_count = 10;
  cfg.params.work_bits = 2;
  cfg.seed = GetParam();
  LatticeCluster cluster(cfg);
  cluster.fund_accounts();

  Rng wl(GetParam() * 7 + 3);
  WorkloadConfig w;
  w.account_count = 10;
  w.tx_rate = 1.5;
  w.duration = 60.0;
  cluster.schedule_workload(generate_payments(w, wl));
  cluster.run_for(120.0);

  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_TRUE(cluster.node(i).ledger().conserves_value()) << i;
  }
  EXPECT_TRUE(cluster.converged());
  // Everything settled once the network quiesces (all receivers online).
  EXPECT_EQ(cluster.node(0).ledger().pending().size(), 0u);
  // Every node agrees on every balance.
  for (std::size_t a = 0; a < 10; ++a) {
    const auto id = cluster.account(a).account_id();
    const auto b0 = cluster.node(0).ledger().balance_of(id);
    for (std::size_t n = 1; n < cluster.node_count(); ++n)
      EXPECT_EQ(cluster.node(n).ledger().balance_of(id), b0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeProperty,
                         ::testing::Values(7, 77, 777, 7777));

// ---------------------------------------------------------------------------
// Tangle gap healing: gossip over jittery links delivers transactions out
// of order, so children routinely arrive before their parents and park in
// the per-node gap pool (§IV-B's missing-predecessor analogue). For any
// seed the pools must drain completely once the network quiesces, with
// every replica converging on the same tangle.

class TangleGapProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  /// A 5-replica cluster whose gossip reorders hard, run to quiescence.
  static std::unique_ptr<TangleCluster> run_gap_cluster(std::uint64_t seed) {
    TangleClusterConfig cfg;
    cfg.node_count = 5;
    cfg.account_count = 12;
    cfg.params.work_bits = 2;
    // Jitter comparable to the base latency: arrival order scrambles hard
    // enough that parent-before-child cannot be assumed anywhere.
    cfg.link = net::LinkParams{0.08, 0.08, 1e7};
    cfg.seed = seed;
    auto cluster = std::make_unique<TangleCluster>(cfg);
    cluster->start();

    Rng wl(seed * 13 + 7);
    WorkloadConfig w;
    w.account_count = 12;
    w.tx_rate = 6.0;
    w.duration = 20.0;
    w.max_amount = 100;
    cluster->schedule_workload(generate_payments(w, wl));
    cluster->run_for(60.0);
    return cluster;
  }
};

TEST_P(TangleGapProperty, OutOfOrderDeliveryHealsAndConverges) {
  const std::unique_ptr<TangleCluster> owned = run_gap_cluster(GetParam());
  TangleCluster& cluster = *owned;

  // The sweep is only meaningful if reordering actually happened.
  const obs::Counter* parked =
      cluster.metrics_registry().find_counter("tangle.gap.parked");
  ASSERT_NE(parked, nullptr);
  EXPECT_GT(parked->value(), 0u) << "workload never exercised the gap pool";

  // Healing: every pool drained, every replica identical.
  for (std::size_t i = 0; i < cluster.node_count(); ++i)
    EXPECT_EQ(cluster.node(i).gap_pool_size(), 0u) << "node " << i;
  EXPECT_TRUE(cluster.converged());
  const std::size_t size0 = cluster.node(0).tangle().size();
  EXPECT_GT(size0, 1u);
  for (std::size_t i = 1; i < cluster.node_count(); ++i)
    EXPECT_EQ(cluster.node(i).tangle().size(), size0);
}

// Each replica attached the same transactions in its own gap-healed order,
// so each built its own attach-order index: all must match the oracle.
TEST_P(TangleGapProperty, EveryReplicaIndexMatchesOracle) {
  const std::unique_ptr<TangleCluster> cluster = run_gap_cluster(GetParam());
  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    tangle::testutil::expect_index_matches_oracle(
        cluster->node(i).tangle(), cluster->config().confirmation_threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TangleGapProperty,
                         ::testing::Values(5, 55, 555, 5555));

// ---------------------------------------------------------------------------
// Tangle tip-count stationarity (ISSUE 8 satellite; Feng–King–Duffy): for
// any seed an honest tangle's tip process is stationary — the windowed
// variance stays bounded — while genesis-anchored lazy-tip spam breaks
// one-endedness and the tip count grows without bound.

class TangleStationarityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TangleStationarityProperty, HonestConvergesSpamDiverges) {
  auto windowed_variance = [&](double spam_power) {
    TangleClusterConfig cfg;
    cfg.node_count = 3;
    cfg.account_count = 10;
    cfg.params.work_bits = 2;
    cfg.seed = GetParam();
    TangleCluster cluster(cfg);

    AdversaryConfig ac;
    ac.kind = AdversaryKind::kSpam;
    ac.power = spam_power;
    ac.node = 1;
    ac.start_time = 2.0;
    ac.interval = 1.0;
    TangleAdversary adversary(cluster, ac);

    cluster.start();
    adversary.start();

    Rng wl(GetParam() * 17 + 3);
    WorkloadConfig w;
    w.account_count = 10;
    w.tx_rate = 4.0;
    w.duration = 16.0;
    w.max_amount = 100;
    cluster.schedule_workload(generate_payments(w, wl));

    TipStationarity stat(12);
    for (int s = 0; s < 16; ++s) {
      cluster.run_for(1.0);
      stat.sample(cluster.node(0).tangle().tip_count());
    }
    EXPECT_EQ(stat.samples(), 16u);
    return stat.variance();
  };

  const double honest = windowed_variance(0.0);
  const double spam = windowed_variance(0.9);
  // Honest: the tip count hovers around its small equilibrium. Spam: the
  // count ramps linearly through the window, so the windowed variance
  // explodes relative to honest noise.
  EXPECT_LT(honest, 30.0);
  EXPECT_GT(spam, 10.0 * honest + 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TangleStationarityProperty,
                         ::testing::Values(2, 22, 222, 2222));

// ---------------------------------------------------------------------------
// Deterministic replay for the chain clusters (the lattice variant lives
// in core_cluster_test.cpp).

TEST(ChainDeterminism, SameSeedSameTip) {
  auto run_once = [] {
    ChainClusterConfig cfg;
    cfg.params = chain::bitcoin_like();
    cfg.params.verify_pow = false;
    cfg.params.retarget_window = 0;
    cfg.params.block_interval = 20.0;
    cfg.params.initial_difficulty = 1e6;
    cfg.node_count = 4;
    cfg.miner_count = 3;
    cfg.total_hashrate = 1e6 / 20.0;
    cfg.account_count = 6;
    cfg.seed = 555;
    ChainCluster cluster(cfg);
    cluster.start();
    Rng wl(99);
    WorkloadConfig w;
    w.account_count = 6;
    w.tx_rate = 0.5;
    w.duration = 300.0;
    cluster.schedule_workload(generate_payments(w, wl));
    cluster.run_for(500.0);
    return cluster.node(0).chain().tip_hash();
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Admission accounting (ISSUE 10): under open-loop traffic past saturation,
// every submitted transaction lands in exactly one bucket
// (admitted / rejected / evicted / backpressured) and every ADMITTED one is
// eventually confirmed, explicitly evicted, or still accounted in flight —
// nothing leaks.

class TrafficAdmissionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrafficAdmissionProperty, ChainAdmittedConfirmsOrEvicts) {
  ChainClusterConfig cfg;
  cfg.params = chain::pos_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 2.0;
  cfg.params.confirmation_depth = 3;
  cfg.node_count = 3;
  cfg.miner_count = 2;
  cfg.validator_count = 3;
  cfg.total_hashrate = 1e6 / 2.0;
  cfg.account_count = 10;
  cfg.initial_balance = 1'000'000'000;
  cfg.seed = GetParam();
  cfg.traffic.enabled = true;
  cfg.traffic.rate = 80.0;
  cfg.traffic.duration = 20.0;
  cfg.traffic.queue_capacity_bytes = 4 * 1024;  // well under the offered load
  ChainCluster cluster(cfg);
  cluster.start();
  cluster.schedule_traffic();
  cluster.run_for(20.0 + 2.0 * 5.0);

  const RunMetrics m = cluster.metrics();
  // Exact reconciliation: the four outcome buckets partition submissions.
  EXPECT_GT(m.admission_submitted, 0u);
  EXPECT_EQ(m.admission_submitted,
            m.admission_admitted + m.admission_rejected + m.admission_evicted +
                m.admission_backpressured);
  // The config is past saturation by construction.
  EXPECT_GT(m.admission_evicted + m.admission_backpressured, 0u);
  EXPECT_GT(m.admission_admitted, 0u);

  // Lifecycle completeness: each admitted tx got a tracker entry, and each
  // entry is confirmed, explicitly evicted, or still in flight.
  const obs::LatencyTracker& lt = cluster.lifecycle();
  EXPECT_EQ(lt.submitted(), lt.confirmed() + lt.evicted() + lt.in_flight());
  EXPECT_EQ(lt.submitted(), m.admission_admitted + m.admission_evicted);
  EXPECT_EQ(lt.evicted(), m.admission_evicted);
  EXPECT_LE(lt.confirmed(), m.admission_admitted);
  EXPECT_GT(lt.confirmed(), 0u);
}

TEST_P(TrafficAdmissionProperty, LatticeAdmissionReconciles) {
  LatticeClusterConfig cfg;
  cfg.node_count = 3;
  cfg.representative_count = 2;
  cfg.account_count = 10;
  cfg.params.work_bits = 2;
  cfg.seed = GetParam();
  cfg.traffic.enabled = true;
  cfg.traffic.rate = 60.0;
  cfg.traffic.duration = 8.0;
  cfg.traffic.queue_capacity_bytes = 1536;
  cfg.traffic.drain_burst = 2;
  LatticeCluster cluster(cfg);
  cluster.fund_accounts();
  cluster.schedule_traffic();
  cluster.run_for(8.0 + 12.0);

  const RunMetrics m = cluster.metrics();
  EXPECT_GT(m.admission_submitted, 0u);
  EXPECT_EQ(m.admission_submitted,
            m.admission_admitted + m.admission_rejected + m.admission_evicted +
                m.admission_backpressured);
  EXPECT_GT(m.admission_evicted + m.admission_backpressured, 0u);

  // Queue-evicted payments never reached the ledger (no lifecycle entry),
  // so the tracker covers exactly the drained-and-issued population.
  const obs::LatencyTracker& lt = cluster.lifecycle();
  EXPECT_EQ(lt.submitted(), lt.confirmed() + lt.evicted() + lt.in_flight());
  EXPECT_LE(lt.submitted(), m.admission_admitted);
  EXPECT_GT(lt.confirmed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrafficAdmissionProperty,
                         ::testing::Values(41, 42, 43));

// Different seeds must explore different histories (sanity of the sweep).
TEST(ChainDeterminism, DifferentSeedsDiffer) {
  auto run_with = [](std::uint64_t seed) {
    ChainClusterConfig cfg;
    cfg.params = chain::bitcoin_like();
    cfg.params.verify_pow = false;
    cfg.params.retarget_window = 0;
    cfg.params.block_interval = 20.0;
    cfg.params.initial_difficulty = 1e6;
    cfg.node_count = 3;
    cfg.miner_count = 2;
    cfg.total_hashrate = 1e6 / 20.0;
    cfg.account_count = 4;
    cfg.seed = seed;
    ChainCluster cluster(cfg);
    cluster.start();
    cluster.run_for(300.0);
    return cluster.node(0).chain().tip_hash();
  };
  EXPECT_NE(run_with(1), run_with(2));
}

}  // namespace
}  // namespace dlt::core
