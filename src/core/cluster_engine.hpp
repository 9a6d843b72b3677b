// The generic cluster engine: one driver for all three ledger paradigms.
//
// ClusterEngine<Traits> owns what ChainCluster, LatticeCluster and
// TangleCluster have in common: the simulation loop, topology
// construction, workload scheduling, crypto wiring (the shared sigcache),
// observability plumbing, node-store setup, the lifecycle submission
// stamp, the DAG admission queues and RunMetrics assembly. A LedgerTraits
// type supplies only the ledger-specific policy — node construction,
// payment submission, metric extraction and the convergence predicate.
// See DESIGN.md "Engine layering" for the traits contract.
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

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster_common.hpp"
#include "core/metrics.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "storage/ledger_store.hpp"
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
///   using Config;  // derives from ClusterConfig (the fields the engine
///                  // reads) and adds node_count plus its own fields
///   using Node;    // per-node network participant type
///   using Amount;  // payment amount type
///   struct State;  // driver-side bookkeeping (wallets, nonces, ...)
///
///   static State make_state(Config&);           // may normalize config
///   static std::string system_name(const Config&);
///   static void build_nodes(ClusterEngine&);    // forks rng per node
///   static void after_topology(ClusterEngine&); // e.g. auto-start
///   static void start(ClusterEngine&);
///   static SubmitOutcome submit_payment(ClusterEngine&, std::size_t from,
///                                       std::size_t to, Amount);
///   static void submit_traffic(ClusterEngine&, const TrafficEvent&);
///                  // open-loop arrival → admission pipeline (ISSUE 10):
///                  // the chain offers it to its mempool fee market; the
///                  // lattice and tangle have no mempool and hand it to
///                  // enqueue_traffic
///   static void fill_metrics(const ClusterEngine&, RunMetrics&);
///   static bool converged(const ClusterEngine&);
///
/// after_topology also installs whatever per-ledger machinery turns
/// "confirmed" into LatencyTracker::on_confirm calls when lifecycle
/// tracking is on: the chain and lattice confirm from existing node
/// hooks; the tangle schedules a recurring tip-cone coverage sweep.
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
      record_submission(out, sim_.now(), from);
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
  /// The probe every node resolves its metrics through.
  obs::Probe node_probe() { return obs_.probe(); }
  void add_node(std::unique_ptr<Node> node) {
    nodes_.push_back(std::move(node));
  }
  /// Node `i`'s ledger store, named `<system>-s<seed>/node<i>`, with its
  /// probe attached. Every node gets one (memory mode by default) so
  /// storage.* gauges appear in every report and the memory/disk
  /// differential stays a pure config flip.
  std::shared_ptr<storage::LedgerStore> make_node_store(std::size_t i) {
    auto store = std::make_shared<storage::LedgerStore>(
        config_.storage, Traits::system_name(config_) + "-s" +
                             std::to_string(config_.seed) + "/node" +
                             std::to_string(i));
    store->attach_probe(node_probe());
    return store;
  }
  obs::Counter& submitted_counter() { return *submitted_; }
  obs::Counter& rejected_counter() { return *rejected_; }

  /// Registers a submitted transaction with the lifecycle tracker: the
  /// submit stamp at `submitted_at`, tagged with the sending account (so
  /// per-issuer inclusion rates, fairness.inclusion_gini, are
  /// attributable) and the fee class, plus admit/include stamps now for
  /// the stages the ledger completed inside the submit call.
  void record_submission(
      const SubmitOutcome& out, double submitted_at, std::size_t from,
      std::uint32_t fee_class = obs::LatencyTracker::kNoClass) {
    if (!obs_.lifecycle.enabled()) return;
    const double now = sim_.now();
    obs_.lifecycle.on_submit(out.tx_id, submitted_at, out.node,
                             static_cast<std::uint64_t>(from), fee_class);
    if (out.admitted) obs_.lifecycle.on_admit(out.tx_id, now, out.node);
    if (out.included) obs_.lifecycle.on_include(out.tx_id, now, out.node);
  }

  /// The admission pipeline of the ledgers without a mempool (lattice,
  /// tangle), whose issuers are the validators: a submit there applies
  /// synchronously, so the arrival parks in the byte-capacity
  /// AdmissionQueue of node `ev.from % node_count()` instead, and a drain
  /// event every traffic.drain_interval submits up to traffic.drain_burst
  /// queued payments through Traits::submit_payment. Offered load past
  /// that service rate queues, evicts or backpressures rather than being
  /// absorbed instantly. Queue-evicted payments never reached the ledger,
  /// so they have no lifecycle entry; only the tallies move.
  void enqueue_traffic(const TrafficEvent& ev) {
    const TrafficConfig& tc = config_.traffic;
    if (queues_.empty()) {
      queues_.assign(nodes_.size(), AdmissionQueue(tc.queue_capacity_bytes));
      drain_armed_.assign(nodes_.size(), 0);
    }
    const std::size_t owner = ev.from % nodes_.size();
    QueuedPayment p;
    p.submit_time = sim_.now();
    p.from = ev.from;
    p.to = ev.to;
    p.amount = ev.amount;
    p.fee_class = ev.fee_class;
    p.fee = tc.base_fee * fee_class_multiplier(ev.fee_class);
    p.bytes = tc.payment_bytes;
    std::vector<QueuedPayment> evicted;
    const auto res = queues_[owner].push(p, &evicted);
    for (std::size_t i = 0; i < evicted.size(); ++i) {
      if (admission_.admitted > 0) --admission_.admitted;
      ++admission_.evicted;
    }
    if (res == AdmissionQueue::Push::kBackpressured) {
      ++admission_.backpressured;
      return;
    }
    ++admission_.admitted;
    arm_drain(owner);
  }

 private:
  void arm_drain(std::size_t owner) {
    if (drain_armed_[owner]) return;
    drain_armed_[owner] = 1;
    sim_.schedule_in(config_.traffic.drain_interval,
                     [this, owner] { drain_queue(owner); });
  }

  // Submit is stamped at ENQUEUE time, so submit→confirm includes the
  // admission-queue wait: the open-loop latency of interest.
  void drain_queue(std::size_t owner) {
    drain_armed_[owner] = 0;
    AdmissionQueue& q = queues_[owner];
    const std::size_t burst =
        std::max<std::size_t>(1, config_.traffic.drain_burst);
    for (std::size_t i = 0; i < burst; ++i) {
      QueuedPayment p;
      if (!q.pop(p)) break;
      const SubmitOutcome out = Traits::submit_payment(
          *this, p.from, p.to, static_cast<Amount>(p.amount));
      if (!out.status.ok()) {
        // Drain-time validation failure (e.g. insufficient balance): the
        // tx leaves the admitted population as an explicit rejection.
        if (admission_.admitted > 0) --admission_.admitted;
        ++admission_.rejected;
        rejected_->inc();
        continue;
      }
      record_submission(out, p.submit_time, p.from, p.fee_class);
    }
    if (!q.empty()) arm_drain(owner);
  }

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

  // Open-loop traffic engine state. The DAG admission queues, one per
  // node, and their drain-event arm flags are sized on the first
  // enqueue_traffic arrival.
  std::unique_ptr<TrafficSource> traffic_;
  double traffic_start_ = 0.0;
  AdmissionStats admission_;
  std::vector<AdmissionQueue> queues_;
  std::vector<char> drain_armed_;

  // Workload tallies live in the cluster registry (obs_.metrics); these
  // are cached handles into it.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* rejected_ = nullptr;
};

}  // namespace dlt::core
