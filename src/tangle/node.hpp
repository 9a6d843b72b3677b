// An IOTA-style network participant: a full tangle replica behind a gossip
// endpoint (paper §II-B footnote 1 — the third ledger paradigm).
//
// Every node keeps its own Tangle replica. Issuing a transaction runs the
// MCMC tip selection against the local replica, solves the per-transaction
// hashcash, signs, attaches locally and gossips. Received transactions
// whose parents have not arrived yet (gossip floods from different origins
// race over different paths) park in a gap pool keyed by the first missing
// parent and are retried when it lands — the tangle's analogue of the
// lattice gap_previous pool (§IV-B).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "obs/probe.hpp"
#include "tangle/tangle.hpp"

namespace dlt::obs {
class LatencyTracker;
}

namespace dlt::tangle {

struct TangleNodeConfig {
  /// Per-node persistent store (storage/ledger_store.hpp); handed to the
  /// tangle via Tangle::attach_store. Null = no write-through.
  std::shared_ptr<storage::LedgerStore> store;
  /// Observability hookup (cluster-owned registry + tracer). A default
  /// probe is inert; see obs/probe.hpp.
  obs::Probe probe;
  /// Cluster-owned transaction-lifecycle tracker (obs/latency.hpp).
  /// Null = lifecycle tracking off.
  obs::LatencyTracker* lifecycle = nullptr;
  /// Inclusion is stamped when the *reference replica* attaches a tracked
  /// transaction; exactly one node per cluster is the observer so stamps
  /// stay deterministic.
  bool lifecycle_observer = false;
};

class TangleNode {
 public:
  TangleNode(net::Network& network, const TangleParams& params,
             const TangleNodeConfig& config, Rng rng);

  net::NodeId id() const { return id_; }
  Tangle& tangle() { return tangle_; }
  const Tangle& tangle() const { return tangle_; }
  Rng& rng() { return rng_; }

  /// Issues one transaction: two tip selections (configured strategy)
  /// against the local replica, hashcash, signature, local attach, gossip.
  /// The timestamp is the current simulation time, so traces stay
  /// deterministic. Tip selections draw from the dedicated selection
  /// stream (select_rng()); work/signing draw from rng().
  Result<TxHash> issue(const crypto::KeyPair& issuer, const Hash256& payload,
                       const Hash256& spend_key = {});

  /// Adversary hook (ISSUE 8, core/adversary.hpp): attaches an externally
  /// built, already-signed transaction to the local replica and gossips it
  /// on success — the release path for parasite chains and spam bursts.
  /// Draws no node randomness, so an adversary that never calls it leaves
  /// the honest trace byte-identical.
  Status inject(const TangleTx& tx);

  /// The dedicated tip-selection RNG stream, forked from the node RNG at
  /// construction so selector strategies (and extra walk_confidence
  /// sampling) can never perturb issuance timing or signing randomness.
  Rng& select_rng() { return select_rng_; }

  /// Transactions parked waiting for a missing parent.
  std::size_t gap_pool_size() const;

 private:
  void handle_message(const net::Message& msg);
  void process_tx(const TangleTx& tx);
  /// Parks `tx` (whose hash is `hash`) on its first missing parent, or
  /// attaches it; true when it attached.
  bool park_or_attach(const TxHash& hash, const TangleTx& tx);
  /// Re-attaches parked transactions whose parents became available,
  /// cascading (FIFO) through dependents of dependents.
  void retry_gaps(const TxHash& now_available);

  net::Network& net_;
  net::NodeId id_;
  TangleNodeConfig config_;
  Tangle tangle_;
  Rng rng_;
  Rng select_rng_;  // forked from rng_ at construction (see select_rng())

  // Parked transactions keyed by the first missing parent (§IV-B gap
  // healing). A tx re-parks under its other parent if that one is also
  // missing when the first arrives.
  struct Parked {
    TxHash hash;
    TangleTx tx;
  };
  std::unordered_map<TxHash, std::vector<Parked>> gap_pool_;

  // Cached registry metrics (null when no probe is attached).
  obs::Counter* obs_issued_ = nullptr;
  obs::Counter* obs_received_ = nullptr;
  obs::Counter* obs_gap_parked_ = nullptr;
};

}  // namespace dlt::tangle
