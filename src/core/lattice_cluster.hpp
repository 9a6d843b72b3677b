// A complete simulated block-lattice (Nano-like) network: nodes owning
// accounts, representatives, and a workload driver (paper §II-B, §VI-B).
//
// Since the engine unification, LatticeCluster is a thin facade over
// core::ClusterEngine<LatticeTraits>: the engine owns the sim loop,
// topology, crypto/obs wiring and RunMetrics assembly; LatticeTraits
// supplies the lattice-specific policy (genesis/supply, account→node
// ownership, voting identities, confirmation stats). Public API unchanged.
#pragma once

#include <vector>

#include "core/cluster_engine.hpp"
#include "lattice/node.hpp"

namespace dlt::core {

struct LatticeClusterConfig {
  lattice::LatticeParams params;
  std::size_t node_count = 8;
  /// Nodes [0, representative_count) hold delegated weight and vote.
  std::size_t representative_count = 4;

  Topology topology = Topology::kComplete;
  net::LinkParams link{};
  std::size_t random_degree = 4;

  std::size_t account_count = 50;
  lattice::Amount initial_balance = 10'000'000;
  /// Total genesis supply; 0 = auto (accounts get ~80% of supply, so the
  /// genesis holder is NOT a standing majority and confirmation genuinely
  /// requires representative votes, paper §III-B).
  lattice::Amount supply = 0;

  /// Per-node role assignment (defaults to all historical, §V-B).
  std::vector<lattice::NodeRole> roles;

  /// Crypto hot-path knob (shared sigcache for block + vote checks).
  CryptoConfig crypto{};

  /// Observability knobs (metrics registry is always on; tracing opt-in).
  ObsConfig obs{};

  /// Persistence mode for every node's ledger store (ISSUE 9). Memory mode
  /// (default) keeps the same write-through accounting in RAM; disk mode
  /// adds the segmented log + mmap state backend. Byte-identical traces
  /// either way; see storage/config.hpp and apply_env_storage.
  storage::StorageConfig storage{};

  /// Open-loop traffic engine + admission control (ISSUE 10): arrivals
  /// park in per-owner-node AdmissionQueues (byte-capacity fee market)
  /// drained on the traffic.drain_interval cadence into real sends.
  TrafficConfig traffic{};

  std::uint64_t seed = 42;
};

/// Ledger policy plugged into ClusterEngine (see cluster_engine.hpp for
/// the full contract). Definitions live in lattice_cluster.cpp.
struct LatticeTraits {
  using Config = LatticeClusterConfig;
  using Node = lattice::LatticeNode;
  using Amount = lattice::Amount;

  struct State {
    crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(0x6e5);
    // Traffic admission queues, one per owner node (lazily sized on the
    // first arrival), plus the drain-event arm flags.
    std::vector<AdmissionQueue> queues;
    std::vector<char> drain_armed;
  };

  static State make_state(Config& config);
  static std::string system_name(const Config& config);
  static void build_nodes(ClusterEngine<LatticeTraits>& e);
  static void after_topology(ClusterEngine<LatticeTraits>& e);
  static void wire_lifecycle(ClusterEngine<LatticeTraits>& e);
  static void start(ClusterEngine<LatticeTraits>& e);
  static SubmitOutcome submit_payment(ClusterEngine<LatticeTraits>& e,
                                      std::size_t from, std::size_t to,
                                      Amount amount);
  static void submit_traffic(ClusterEngine<LatticeTraits>& e,
                             const TrafficEvent& ev);
  static void fill_metrics(const ClusterEngine<LatticeTraits>& e,
                           RunMetrics& m);
  static bool converged(const ClusterEngine<LatticeTraits>& e);
};

class LatticeCluster : public ClusterEngine<LatticeTraits> {
 public:
  using ClusterEngine<LatticeTraits>::ClusterEngine;

  lattice::LatticeNode& owner_of(std::size_t account_index) {
    return node(account_index % node_count());
  }

  /// Distributes `initial_balance` from the genesis account to every
  /// workload account (send + open pairs, Fig. 3), then settles.
  void fund_accounts();
};

}  // namespace dlt::core
