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

/// ClusterConfig's shared fields plus the lattice's own.
struct LatticeClusterConfig : ClusterConfig {
  lattice::LatticeParams params;
  std::size_t node_count = 8;
  /// Nodes [0, representative_count) hold delegated weight and vote.
  std::size_t representative_count = 4;

  lattice::Amount initial_balance = 10'000'000;
  /// Total genesis supply; 0 = auto (accounts get ~80% of supply, so the
  /// genesis holder is NOT a standing majority and confirmation genuinely
  /// requires representative votes, paper §III-B).
  lattice::Amount supply = 0;

  /// Per-node role assignment (defaults to all historical, §V-B).
  std::vector<lattice::NodeRole> roles;
};

/// Ledger policy plugged into ClusterEngine (see cluster_engine.hpp for
/// the full contract). Definitions live in lattice_cluster.cpp.
struct LatticeTraits {
  using Config = LatticeClusterConfig;
  using Node = lattice::LatticeNode;
  using Amount = lattice::Amount;

  struct State {
    crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(0x6e5);
  };

  static State make_state(Config& config);
  static std::string system_name(const Config& config);
  static void build_nodes(ClusterEngine<LatticeTraits>& e);
  static void after_topology(ClusterEngine<LatticeTraits>& e);
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
