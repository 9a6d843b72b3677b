// Determinism guarantees of the crypto hot-path layer: a cluster run must
// be bit-identical whether signature verification goes through the shared
// cache or not, and whether digests are memoized or not.
#include <gtest/gtest.h>

#include <sstream>

#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "crypto/digest_cache.hpp"

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

TEST(HotPathDeterminism, DigestMemoOnOffIdenticalOutcome) {
  const ChainClusterConfig cfg = hotpath_chain_config();
  const ChainOutcome memoized = run_chain(cfg);
  crypto::DigestCache::set_enabled(false);
  const ChainOutcome uncached = run_chain(cfg);
  crypto::DigestCache::set_enabled(true);
  expect_identical(memoized, uncached);
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

}  // namespace
}  // namespace dlt::core
