// A complete simulated tangle (IOTA-like) network driven by the generic
// cluster engine — the third ledger paradigm finally gets a cluster driver
// (paper §II-B footnote 1; the DAG family the SoK literature treats as its
// own class).
//
// TangleTraits supplies the tangle-specific policy: every workload account
// maps to an issuing node (round-robin), a payment becomes a transaction
// whose payload commits to (from, to, amount, sequence), and confirmation
// is tip-cone confidence crossing `confirmation_threshold` (compare the
// chain's depth rule, §IV).
#pragma once

#include "core/cluster_engine.hpp"
#include "tangle/node.hpp"

namespace dlt::core {

/// ClusterConfig's shared fields plus the tangle's own.
struct TangleClusterConfig : ClusterConfig {
  tangle::TangleParams params;
  std::size_t node_count = 6;

  /// A transaction counts as confirmed when at least this fraction of the
  /// reference replica's tips approve it (confirmation_confidence ≥
  /// threshold — the tangle's analogue of confirmation depth).
  double confirmation_threshold = 0.5;
  /// How often (simulated seconds) the lifecycle sweep re-evaluates
  /// tip-cone confidence on the reference replica to stamp confirmation
  /// times. Only scheduled when lifecycle tracking is on; 0 = never.
  double confirmation_sweep_interval = 1.0;
};

/// Ledger policy plugged into ClusterEngine (see cluster_engine.hpp for
/// the full contract). Definitions live in tangle_cluster.cpp.
struct TangleTraits {
  using Config = TangleClusterConfig;
  using Node = tangle::TangleNode;
  using Amount = std::uint64_t;

  struct State {
    /// Payment sequence number folded into each payload commitment so
    /// repeated (from, to, amount) triples stay distinct transactions.
    std::uint64_t payment_seq = 0;
  };

  static State make_state(Config& config);
  static std::string system_name(const Config& config);
  static void build_nodes(ClusterEngine<TangleTraits>& e);
  static void after_topology(ClusterEngine<TangleTraits>& e);
  static void start(ClusterEngine<TangleTraits>& e);
  static SubmitOutcome submit_payment(ClusterEngine<TangleTraits>& e,
                                      std::size_t from, std::size_t to,
                                      Amount amount);
  static void submit_traffic(ClusterEngine<TangleTraits>& e,
                             const TrafficEvent& ev);
  static void fill_metrics(const ClusterEngine<TangleTraits>& e,
                           RunMetrics& m);
  static bool converged(const ClusterEngine<TangleTraits>& e);
};

class TangleCluster : public ClusterEngine<TangleTraits> {
 public:
  using ClusterEngine<TangleTraits>::ClusterEngine;

  /// The node that issues for workload account `account_index`.
  tangle::TangleNode& issuer_of(std::size_t account_index) {
    return node(account_index % node_count());
  }
};

}  // namespace dlt::core
