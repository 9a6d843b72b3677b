// Guarantees of the crypto hot-path layer: a cluster run must be
// bit-identical whether signature verification goes through the shared
// cache or not, and every digest memo left after a run must equal a
// recompute.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <variant>

#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"

namespace dlt::core {
namespace {

// Every RunMetrics field a divergence could show up in, flattened for one
// string compare (readable failure diffs).
std::string fingerprint(const RunMetrics& m) {
  std::ostringstream os;
  os << m.system << " dur=" << m.sim_duration << " sub=" << m.submitted
     << " rej=" << m.rejected << " inc=" << m.included
     << " conf=" << m.confirmed << " pend=" << m.pending_end
     << " reorg=" << m.reorgs << " orph=" << m.orphaned_blocks
     << " depth=" << m.max_reorg_depth << " blocks=" << m.blocks_produced
     << " bytes=" << m.stored_bytes << " msgs=" << m.messages
     << " mbytes=" << m.message_bytes
     << " ilat=" << m.inclusion_latency.median() << "/"
     << m.inclusion_latency.p95()
     << " clat=" << m.confirmation_latency.median() << "/"
     << m.confirmation_latency.p95();
  return os.str();
}

ChainClusterConfig hotpath_chain_config() {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.block_interval = 20.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / 20.0;
  cfg.params.initial_difficulty = 1e6;
  cfg.account_count = 8;
  cfg.genesis_outputs_per_account = 4;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 1234;
  return cfg;
}

struct ChainOutcome {
  std::string metrics;
  chain::BlockHash tip;
  bool converged = false;
};

ChainOutcome run_chain(const ChainClusterConfig& cfg) {
  ChainCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(99);
  WorkloadConfig wl;
  wl.account_count = 8;
  wl.tx_rate = 1.0;
  wl.duration = 300.0;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(600.0);
  ChainOutcome out;
  out.metrics = fingerprint(cluster.metrics());
  out.tip = cluster.node(0).chain().tip_hash();
  out.converged = cluster.converged();
  return out;
}

void expect_identical(const ChainOutcome& a, const ChainOutcome& b) {
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.tip, b.tip);
  EXPECT_EQ(a.converged, b.converged);
}

TEST(HotPathDeterminism, SigcacheOnOffIdenticalOutcome) {
  ChainClusterConfig with = hotpath_chain_config();
  ChainClusterConfig without = with;
  without.crypto.shared_sigcache = false;
  expect_identical(run_chain(with), run_chain(without));
}

TEST(HotPathDeterminism, LatticeSigcacheOnOffIdenticalOutcome) {
  LatticeClusterConfig cfg;
  cfg.node_count = 4;
  cfg.representative_count = 3;
  cfg.account_count = 8;
  cfg.params.verify_work = false;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 77;

  auto run = [](const LatticeClusterConfig& c) {
    LatticeCluster cluster(c);
    cluster.fund_accounts();
    Rng wl_rng(5);
    WorkloadConfig wl;
    wl.account_count = 8;
    wl.tx_rate = 2.0;
    wl.duration = 60.0;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(120.0);
    return fingerprint(cluster.metrics()) +
           (cluster.converged() ? " converged" : " diverged");
  };

  const std::string with = run(cfg);
  LatticeClusterConfig no_cache = cfg;
  no_cache.crypto.shared_sigcache = false;
  EXPECT_EQ(with, run(no_cache));
}

// ---------------------------------------------------------------------------
// Memo audit: after a cluster run, every digest memo a node can reach must
// equal a recompute. Copies keep their memos, so each object is compared
// with a copy that recomputes after invalidate_digests(). A field written
// after its digest was memoized (a missing invalidate) shows up here as a
// mismatch, even where the stale digest is self-consistent enough for the
// run's metrics not to move.

struct MemoAudit {
  std::size_t headers = 0, txs = 0, lattice_blocks = 0;
  std::size_t stale_headers = 0, stale_txs = 0, stale_lattice_blocks = 0;

  void header(const chain::BlockHeader& h) {
    chain::BlockHeader fresh = h;
    fresh.invalidate_digests();
    ++headers;
    if (h.hash() != fresh.hash() || h.pow_digest() != fresh.pow_digest())
      ++stale_headers;
  }

  template <typename Tx>
  void tx(const Tx& t) {
    Tx fresh = t;
    fresh.invalidate_digests();
    ++txs;
    if (t.id() != fresh.id() || t.sighash() != fresh.sighash()) ++stale_txs;
  }

  void block(const chain::Block& b) {
    header(b.header);
    std::visit([this](const auto& list) { for (const auto& t : list) tx(t); },
               b.txs);
  }

  void lattice_block(const lattice::LatticeBlock& b) {
    lattice::LatticeBlock fresh = b;
    fresh.invalidate_digests();
    ++lattice_blocks;
    if (b.hash() != fresh.hash()) ++stale_lattice_blocks;
  }
};

// Active chain and mempool of every node (the pools hand out copies,
// which carry the pooled objects' memos).
MemoAudit audit_chain(ChainCluster& cluster) {
  MemoAudit audit;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    chain::ChainNode& node = cluster.node(i);
    const chain::Blockchain& chain = node.chain();
    for (std::uint32_t h = 0; h <= chain.height(); ++h)
      audit.block(*chain.at_height(h));
    for (const auto& t : node.utxo_pool().select(0)) audit.tx(t);
    for (const auto& t : node.account_pool().select(
             std::numeric_limits<std::uint64_t>::max(), chain.world_state()))
      audit.tx(t);
  }
  return audit;
}

ChainClusterConfig audit_chain_config(chain::ChainParams params) {
  ChainClusterConfig cfg;
  cfg.params = params;
  // Real PoW at a low difficulty: miners sweep nonces through the memoized
  // midstate and every receiver checks pow_digest().
  cfg.params.verify_pow = true;
  cfg.params.initial_difficulty = 64;
  cfg.params.block_interval = 20.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 64 / 20.0;
  cfg.account_count = 8;
  cfg.genesis_outputs_per_account = 4;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 4321;
  return cfg;
}

MemoAudit run_and_audit_chain(const ChainClusterConfig& cfg) {
  ChainCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(17);
  WorkloadConfig wl;
  wl.account_count = 8;
  wl.tx_rate = 1.0;
  wl.duration = 300.0;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(310.0);  // stop with payments still pooled
  EXPECT_GT(cluster.metrics().included, 50u);
  return audit_chain(cluster);
}

void expect_fresh(const MemoAudit& a) {
  EXPECT_EQ(a.stale_headers, 0u) << "of " << a.headers << " headers";
  EXPECT_EQ(a.stale_txs, 0u) << "of " << a.txs << " transactions";
  EXPECT_EQ(a.stale_lattice_blocks, 0u)
      << "of " << a.lattice_blocks << " lattice blocks";
}

TEST(DigestMemoAudit, UtxoChainMemosMatchRecompute) {
  const MemoAudit a =
      run_and_audit_chain(audit_chain_config(chain::bitcoin_like()));
  EXPECT_GT(a.headers, 4u * 10);
  EXPECT_GT(a.txs, 4u * 100);
  expect_fresh(a);
}

TEST(DigestMemoAudit, AccountChainMemosMatchRecompute) {
  const MemoAudit a =
      run_and_audit_chain(audit_chain_config(chain::ethereum_like()));
  EXPECT_GT(a.headers, 4u * 10);
  EXPECT_GT(a.txs, 4u * 100);
  expect_fresh(a);
}

TEST(DigestMemoAudit, LatticeMemosMatchRecompute) {
  LatticeClusterConfig cfg;
  cfg.node_count = 4;
  cfg.representative_count = 3;
  cfg.account_count = 8;
  cfg.link = net::LinkParams{0.05, 0.01, 1e7};
  cfg.seed = 78;
  LatticeCluster cluster(cfg);
  cluster.fund_accounts();
  Rng wl_rng(6);
  WorkloadConfig wl;
  wl.account_count = 8;
  wl.tx_rate = 2.0;
  wl.duration = 60.0;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(120.0);

  MemoAudit audit;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    const lattice::Ledger& ledger = cluster.node(i).ledger();
    ledger.for_each_head([&](const crypto::AccountId& id, const Hash256&) {
      for (const auto& b : ledger.account(id)->chain) audit.lattice_block(b);
    });
  }
  EXPECT_GT(audit.lattice_blocks, 4u * 200);
  expect_fresh(audit);
}

}  // namespace
}  // namespace dlt::core
