// Wiring shared by ChainCluster, LatticeCluster and TangleCluster: the
// config fields the engine reads, network topology construction, the
// deterministic workload-account key schedule, and the crypto hot-path
// knob (the shared sigcache) the cluster kinds thread through their nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/traffic.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "net/network.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"
#include "support/rng.hpp"

namespace dlt::core {

enum class Topology { kComplete, kRandom, kSmallWorld };

/// Crypto hot-path knob common to the three cluster kinds.
struct CryptoConfig {
  /// One signature-verification cache shared by every node: the first node
  /// to verify a (pubkey, sighash, signature) triple serves the other N-1.
  bool shared_sigcache = true;
};

/// Observability knobs common to both cluster kinds. The registry is
/// always on (cheap: pointer-cached counters); tracing is opt-in because
/// the ring buffer holds trace_capacity events in memory.
struct ObsConfig {
  /// Trace ring capacity in events; 0 = tracing disabled (the record path
  /// collapses to a branch, and no RunMetrics value may change either way).
  std::size_t trace_capacity = 0;
  /// Track per-transaction lifecycle latency (obs::LatencyTracker): each
  /// engine-submitted payment is stamped at submit/admit/include/confirm
  /// in sim time, feeding the latency.* histograms and tx_* trace events.
  /// On by default (cheap: one hash-map entry per in-flight payment);
  /// turn off to reproduce pre-lifecycle registry/trace bytes exactly.
  bool track_latency = true;
  /// Per-histogram percentile sample cap for the latency.* histograms
  /// (deterministic reservoir above it; 0 = exact, unbounded).
  std::size_t latency_sample_cap = 1u << 16;
};

/// The config fields ClusterEngine itself reads, the same for every
/// ledger. ChainClusterConfig, LatticeClusterConfig and TangleClusterConfig
/// inherit them and add their own (node_count among them: its default
/// differs per ledger).
struct ClusterConfig {
  Topology topology = Topology::kComplete;
  net::LinkParams link{};
  std::size_t random_degree = 4;

  std::size_t account_count = 50;

  /// Crypto hot-path knob (the shared sigcache; the tangle has none, its
  /// signatures are one-shot).
  CryptoConfig crypto{};

  /// Observability knobs (metrics registry is always on; tracing opt-in).
  ObsConfig obs{};

  /// Persistence mode for every node's ledger store. Memory mode
  /// (default) keeps the same write-through accounting in RAM; disk mode
  /// adds the segmented log + state arena files. Byte-identical traces
  /// either way; see storage/config.hpp and apply_env_storage.
  storage::StorageConfig storage{};

  /// Open-loop traffic engine + admission control, driven by
  /// ClusterEngine::schedule_traffic(). The chain's mempools run the
  /// byte-capacity fee market; the lattice and tangle park arrivals in
  /// the engine's per-node AdmissionQueues (ClusterEngine::enqueue_traffic).
  TrafficConfig traffic{};

  std::uint64_t seed = 42;
};

/// Cluster-owned observability state. Nodes and the network hold
/// non-owning Probes into it; the cluster driver exports it into
/// BENCH_*.json (metrics + trace_summary) at the end of a run.
struct ClusterObs {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::LatencyTracker lifecycle;

  explicit ClusterObs(const ObsConfig& config) {
    if (config.trace_capacity > 0) tracer.enable(config.trace_capacity);
    if (config.track_latency)
      lifecycle.enable(probe(), config.latency_sample_cap);
  }
  obs::Probe probe() { return obs::Probe{&metrics, &tracer}; }

  /// Copies scheduler counters into sim.* gauges and refreshes the
  /// latency.in_flight gauge (call before export).
  void capture_sim(const sim::Simulation& sim);
};

/// Workload account keys on the shared deterministic seed schedule, so
/// fixtures and benches line up across cluster kinds.
std::vector<crypto::KeyPair> make_workload_accounts(std::size_t count);

/// Wires `ids` into the requested topology over `net`.
void build_topology(net::Network& net, const std::vector<net::NodeId>& ids,
                    Topology topology, const net::LinkParams& link,
                    std::size_t random_degree, Rng& rng);

}  // namespace dlt::core
