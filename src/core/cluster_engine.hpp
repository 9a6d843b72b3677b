// The generic cluster engine: one driver for all three ledger paradigms.
//
// ChainCluster, LatticeCluster and TangleCluster used to duplicate the
// simulation loop, topology construction, workload scheduling, crypto
// wiring (the shared sigcache), observability plumbing and
// RunMetrics assembly. ClusterEngine<Traits> owns all of that once; a
// LedgerTraits type supplies only the ledger-specific policy — node
// construction, payment submission, metric extraction and the convergence
// predicate. See DESIGN.md "Engine layering" for the traits contract.
//
// Determinism contract (inherited from the pre-refactor drivers and pinned
// by tests/cluster_engine_test.cpp): for a given seed, the engine performs
// the exact RNG stream splits of the historical drivers —
//
//   1. Rng(config.seed)
//   2. rng.fork()            → the network (latency jitter, loss)
//   3. rng.fork() per node   → node-local randomness, in index order
//   4. rng                   → topology wiring (random / small-world)
//
// and the construction order counters → network → workload accounts →
// nodes → topology → Traits::after_topology. Any reordering changes every
// downstream draw, so traces would diverge; keep this sequence frozen.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/cluster_common.hpp"
#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "support/result.hpp"

namespace dlt::core {

/// What Traits::submit_payment reports back to the engine: the status the
/// caller sees, plus what the lifecycle tracker needs — the transaction's
/// trace id, the submission node, and which lifecycle stages completed
/// synchronously inside the call (the lattice applies a send locally
/// before returning, so admit and include coincide with submit; the chain
/// only admits to the mempool; async stages are stamped later by the
/// node-side hooks).
struct SubmitOutcome {
  Status status = Status::success();
  std::uint64_t tx_id = 0;   // obs::trace_id of the tx/block hash
  std::uint32_t node = 0;    // node that took the submission
  bool admitted = false;     // admitted into mempool/ledger during submit
  bool included = false;     // included on the reference replica already
};

/// Generic cluster driver parameterized by a ledger policy. `Traits` must
/// provide (see ChainTraits / LatticeTraits / TangleTraits):
///
///   using Config;  // cluster config: seed, node_count, account_count,
///                  // topology/link/random_degree, crypto, obs, ...
///   using Node;    // per-node network participant type
///   using Amount;  // payment amount type
///   struct State;  // driver-side bookkeeping (wallets, nonces, ...)
///
///   static State make_state(Config&);           // may normalize config
///   static std::string system_name(const Config&);
///   static void build_nodes(ClusterEngine&);    // forks rng per node
///   static void after_topology(ClusterEngine&); // e.g. auto-start
///   static void wire_lifecycle(ClusterEngine&); // confirmation events
///   static void start(ClusterEngine&);
///   static SubmitOutcome submit_payment(ClusterEngine&, std::size_t from,
///                                       std::size_t to, Amount);
///   static void submit_traffic(ClusterEngine&, const TrafficEvent&);
///                  // open-loop arrival → admission pipeline (ISSUE 10):
///                  // classify into engine.admission() and stamp the
///                  // lifecycle tracker with the arrival's fee class
///   static void fill_metrics(const ClusterEngine&, RunMetrics&);
///   static bool converged(const ClusterEngine&);
///
/// wire_lifecycle is the confirmation-event trait hook (ISSUE 7): called
/// once after topology when lifecycle tracking is enabled, it installs
/// whatever per-ledger machinery turns "confirmed" into
/// LatencyTracker::on_confirm calls (the chain and lattice confirm from
/// existing node hooks, so theirs are no-ops; the tangle schedules a
/// recurring tip-cone coverage sweep).
template <typename Traits>
class ClusterEngine {
 public:
  using Config = typename Traits::Config;
  using Node = typename Traits::Node;
  using Amount = typename Traits::Amount;
  using State = typename Traits::State;

  explicit ClusterEngine(Config config)
      : config_(std::move(config)),
        rng_(config_.seed),
        sigcache_(config_.crypto.shared_sigcache
                      ? std::make_shared<crypto::SignatureCache>()
                      : nullptr),
        obs_(config_.obs),
        state_(Traits::make_state(config_)) {
    submitted_ = &obs_.metrics.counter("cluster.submitted");
    rejected_ = &obs_.metrics.counter("cluster.rejected");

    net_ = std::make_unique<net::Network>(sim_, rng_.fork());
    net_->set_probe(obs_.probe());

    // Workload accounts on the shared deterministic seed schedule, so
    // fixtures line up across ledger kinds.
    accounts_ = make_workload_accounts(config_.account_count);

    Traits::build_nodes(*this);

    std::vector<net::NodeId> ids;
    ids.reserve(nodes_.size());
    for (const auto& n : nodes_) ids.push_back(n->id());
    build_topology(*net_, ids, config_.topology, config_.link,
                   config_.random_degree, rng_);

    Traits::after_topology(*this);

    if (obs_.lifecycle.enabled()) Traits::wire_lifecycle(*this);
  }

  // ---- Generic driver surface (identical across ledger kinds) -----------

  sim::Simulation& simulation() { return sim_; }
  const sim::Simulation& simulation() const { return sim_; }
  net::Network& network() { return *net_; }
  const net::Network& network() const { return *net_; }
  Node& node(std::size_t i) { return *nodes_[i]; }
  const Node& node(std::size_t i) const { return *nodes_[i]; }
  std::size_t node_count() const { return nodes_.size(); }
  const crypto::KeyPair& account(std::size_t i) const { return accounts_[i]; }
  std::size_t account_count() const { return accounts_.size(); }

  /// Starts the ledger's active roles (miners, validators, voters, ...).
  void start() { Traits::start(*this); }

  /// Builds, signs and submits one payment between workload accounts,
  /// tallying cluster.submitted / cluster.rejected and registering the
  /// transaction with the lifecycle tracker (submit stamp, plus whatever
  /// stages the ledger completed synchronously inside the call — all at
  /// the same sim instant, so stamp order within it is immaterial).
  Status submit_payment(std::size_t from, std::size_t to, Amount amount) {
    SubmitOutcome out = Traits::submit_payment(*this, from, to, amount);
    if (out.status.ok()) {
      submitted_->inc();
      if (obs_.lifecycle.enabled()) {
        const double now = sim_.now();
        // Tagged with the sending account so per-issuer inclusion rates
        // (fairness.inclusion_gini, core/adversary.hpp) are attributable.
        obs_.lifecycle.on_submit(out.tx_id, now, out.node,
                                 static_cast<std::uint64_t>(from));
        if (out.admitted) obs_.lifecycle.on_admit(out.tx_id, now, out.node);
        if (out.included)
          obs_.lifecycle.on_include(out.tx_id, now, out.node);
      }
    } else {
      rejected_->inc();
    }
    return out.status;
  }

  /// Schedules an entire workload into the simulation.
  void schedule_workload(const std::vector<PaymentEvent>& events) {
    for (const PaymentEvent& ev : events) {
      sim_.schedule_at(sim_.now() + ev.time, [this, ev] {
        (void)submit_payment(ev.from, ev.to, static_cast<Amount>(ev.amount));
      });
    }
  }

  /// Starts the open-loop traffic engine (ISSUE 10): arrivals generate on
  /// sim-time events from config().traffic, independent of ledger
  /// progress, each handed to Traits::submit_traffic which classifies it
  /// into the admission() tallies. No-op unless traffic.enabled. The
  /// arrival stream draws from its own dedicated Rng (traffic.seed) and
  /// is scheduled one-event-ahead, so it composes with any other
  /// scheduled workload without shifting the cluster RNG chain.
  void schedule_traffic() {
    const TrafficConfig& tc = config_.traffic;
    if (!tc.enabled || tc.rate <= 0.0 || tc.duration <= 0.0) return;
    traffic_ = std::make_unique<TrafficSource>(tc, accounts_.size());
    traffic_start_ = sim_.now();
    schedule_next_arrival();
  }

  /// Open-loop admission tallies (all zero unless schedule_traffic ran).
  AdmissionStats& admission() { return admission_; }
  const AdmissionStats& admission() const { return admission_; }

  /// Runs the simulation for `seconds` of simulated time.
  void run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

  /// Snapshot of aggregated metrics (reference view: node 0). The engine
  /// fills the ledger-independent fields; Traits::fill_metrics the rest.
  RunMetrics metrics() const {
    RunMetrics m;
    m.system = Traits::system_name(config_);
    m.sim_duration = sim_.now();
    m.submitted = submitted_->value();
    m.rejected = rejected_->value();
    Traits::fill_metrics(*this, m);
    m.messages = net_->traffic().messages;
    m.message_bytes = net_->traffic().bytes;
    m.admission_submitted = admission_.submitted;
    m.admission_admitted = admission_.admitted;
    m.admission_rejected = admission_.rejected;
    m.admission_evicted = admission_.evicted;
    m.admission_backpressured = admission_.backpressured;
    return m;
  }

  /// True when every node agrees on the ledger frontier.
  bool converged() const { return Traits::converged(*this); }

  /// The cluster-wide signature cache (null when crypto.shared_sigcache is
  /// off); benches read its hit-rate stats.
  crypto::SignatureCache* sigcache() { return sigcache_.get(); }
  const crypto::SignatureCache* sigcache() const { return sigcache_.get(); }

  /// Cluster-wide observability state (nodes and the network feed it).
  obs::MetricsRegistry& metrics_registry() { return obs_.metrics; }
  const obs::MetricsRegistry& metrics_registry() const {
    return obs_.metrics;
  }
  obs::Tracer& tracer() { return obs_.tracer; }
  const obs::Tracer& tracer() const { return obs_.tracer; }
  /// The transaction-lifecycle tracker; nullptr while tracking is off
  /// (obs.track_latency=false), so node hooks fall back to their
  /// historical trace emission with a single pointer check.
  obs::LatencyTracker* lifecycle_tracker() {
    return obs_.lifecycle.enabled() ? &obs_.lifecycle : nullptr;
  }
  const obs::LatencyTracker& lifecycle() const { return obs_.lifecycle; }
  /// Registry JSON with sim.* gauges refreshed — the bench `metrics`
  /// section.
  support::JsonObject metrics_json() {
    obs_.capture_sim(sim_);
    if (config_.traffic.enabled) {
      obs_.metrics.gauge("admission.submitted")
          .set(static_cast<double>(admission_.submitted));
      obs_.metrics.gauge("admission.admitted")
          .set(static_cast<double>(admission_.admitted));
      obs_.metrics.gauge("admission.rejected")
          .set(static_cast<double>(admission_.rejected));
      obs_.metrics.gauge("admission.evicted")
          .set(static_cast<double>(admission_.evicted));
      obs_.metrics.gauge("admission.backpressured")
          .set(static_cast<double>(admission_.backpressured));
    }
    return obs_.metrics.to_json();
  }
  support::JsonObject trace_summary_json() const {
    return obs_.tracer.summary_json();
  }

  // ---- Traits-facing surface (node construction, submission paths) ------

  Config& config() { return config_; }
  const Config& config() const { return config_; }
  Rng& rng() { return rng_; }
  /// The shared cache itself, for handing to every node.
  const std::shared_ptr<crypto::SignatureCache>& sigcache_handle() const {
    return sigcache_;
  }
  ClusterObs& obs() { return obs_; }
  State& state() { return state_; }
  const State& state() const { return state_; }
  /// Probe for node `i`; namespaced under "node.<i>." when
  /// obs.per_node_metrics is on (see ClusterObs::probe_for).
  obs::Probe node_probe(std::size_t i) { return obs_.probe_for(i); }
  void add_node(std::unique_ptr<Node> node) {
    nodes_.push_back(std::move(node));
  }
  obs::Counter& submitted_counter() { return *submitted_; }
  obs::Counter& rejected_counter() { return *rejected_; }

 private:
  // One-event-ahead arrival scheduling: each fired arrival books the next
  // one, so the sim's event queue never holds more than one future
  // arrival no matter how far past saturation the offered load runs.
  void schedule_next_arrival() {
    TrafficEvent ev;
    if (!traffic_->next(ev)) return;
    sim_.schedule_at(traffic_start_ + ev.time, [this, ev] {
      ++admission_.submitted;
      submitted_->inc();
      Traits::submit_traffic(*this, ev);
      schedule_next_arrival();
    });
  }

  // Declaration order is load-bearing: rng_ before sigcache_/obs_ (ctor
  // init list), sim_ before net_ (network holds a reference), nodes_ after
  // net_ (nodes deregister against a live network on destruction).
  Config config_;
  Rng rng_;
  std::shared_ptr<crypto::SignatureCache> sigcache_;
  ClusterObs obs_;
  State state_;
  sim::Simulation sim_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<crypto::KeyPair> accounts_;

  // Open-loop traffic engine state (ISSUE 10).
  std::unique_ptr<TrafficSource> traffic_;
  double traffic_start_ = 0.0;
  AdmissionStats admission_;

  // Workload tallies live in the cluster registry (obs_.metrics); these
  // are cached handles into it.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace dlt::core
