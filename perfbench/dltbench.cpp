// dltbench: the repository benchmark driver.
//
// Runs one named workload on the existing cluster drivers (ChainCluster,
// LatticeCluster, TangleCluster) and prints its metrics as one JSON object
// on the last line of stdout. run.py builds this binary and invokes it; see
// README.md for the workloads, the metric table and the output checks.
//
//   dltbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--short] [--spans <path>]
//   dltbench --selftest
//
// Every layer is timed from outside, with spans around this file's own
// calls into public functions (construction, funding, workload generation,
// each submit, each run_for slice). Layers reachable only inside sim events
// are measured in the traced run by shadow calls: a const public function
// called on the live state, timed, its result discarded. The traced run
// proves the shadow calls do not perturb the simulation by reproducing the
// untraced run's deterministic outputs exactly.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "crypto/hash.hpp"
#include "crypto/sha256.hpp"
#include "support/json.hpp"
#include "support/serialize.hpp"

namespace {

using namespace dlt;
using namespace dlt::core;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}


double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The cluster's own randomness (PoW draws, link jitter, tip-selection
/// walks) is fixed; the workload seed drives the offered load only.
constexpr std::uint64_t kClusterSeed = 21;

/// Independent seeds for the payment list, the traffic stream and the
/// shadow calls, all derived from the one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix(splitmix(seed) ^ (stream * 0x2545f4914f6cdd1dULL));
}

// ---- Spans -----------------------------------------------------------------

enum class Name : std::uint8_t {
  kRep,
  kBuild,
  kFund,
  kWorkload,
  kRunFor,
  kSubmit,
  kSettle,
  kSelectTip,
  kCumulativeWeight,
  kSweep,
  kTotalWeight,
};

const char* to_string(Name n) {
  switch (n) {
    case Name::kRep: return "rep";
    case Name::kBuild: return "core.setup.build";
    case Name::kFund: return "core.setup.fund";
    case Name::kWorkload: return "core.setup.workload";
    case Name::kRunFor: return "sim.run_for";
    case Name::kSubmit: return "core.submit";
    case Name::kSettle: return "core.settle";
    case Name::kSelectTip: return "shadow.tangle.select_tip";
    case Name::kCumulativeWeight: return "shadow.tangle.cumulative_weight";
    case Name::kSweep: return "shadow.tangle.sweep";
    case Name::kTotalWeight: return "shadow.lattice.total_weight";
  }
  return "?";
}

struct Span {
  Name name;
  std::int32_t parent;  // index into the span list, -1 for a root
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint64_t tx;  // workload payment index, 0 when not per-transaction
};

/// In-memory span recorder. Disabled, open/close are a branch; enabled,
/// each span costs two clock reads and one vector slot.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::int32_t open(Name name, std::uint64_t tx = 0) {
    if (!enabled_) return -1;
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, parent, now_ns(), 0, tx});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close(std::int32_t index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Total duration of every span named `name`, in seconds.
  double total_s(Name name) const {
    double ns = 0;
    for (const Span& s : spans_)
      if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
    return ns * 1e-9;
  }
  /// Durations of every span named `name`, in microseconds.
  std::vector<double> durations_us(Name name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    return out;
  }
  /// Self time of the spans named `name`: their duration minus the part
  /// their direct children cover, in seconds.
  double self_s(Name name) const {
    double ns = 0;
    for (const Span& s : spans_)
      if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
    for (const Span& s : spans_)
      if (s.parent >= 0 &&
          spans_[static_cast<std::size_t>(s.parent)].name == name)
        ns -= static_cast<double>(s.end_ns - s.start_ns);
    return ns * 1e-9;
  }

  void write_jsonl(std::ostream& out) const {
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << to_string(s.name) << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"tx\":" << s.tx << "}\n";
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(SpanLog& log, Name name, std::uint64_t tx = 0)
      : log_(log), index_(log.open(name, tx)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

// ---- Results ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The deterministic outputs of one run. Every rep of one invocation, and
/// the traced reps against the untraced ones, must agree on all of them.
struct SimOutputs {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double confirmed_tps = 0.0;
  double confirm_p50_s = 0.0;
  double confirm_tail_s = 0.0;
  bool operator==(const SimOutputs&) const = default;
};

struct RepResult {
  SimOutputs sim;
  std::uint64_t latency_samples = 0;
  double tail_q = 0;
  double build_s = 0, fund_s = 0, workload_s = 0;
  double run_s = 0;     // wall time of the simulated run (all run_for slices)
  double shadow_s = 0;  // shadow-call time inside run_s (traced reps only)
  std::vector<std::string> violations;
  Metrics layers;  // per-layer metrics (traced reps only)

  double setup_s() const { return build_s + fund_s + workload_s; }
};

/// The counts the output checks read; split out so the self-test can feed
/// tampered values through the same checks.
struct Tallies {
  bool open_loop = false;
  std::uint64_t attempted = 0;
  AdmissionStats admission;
  std::uint64_t lifecycle_submitted = 0;
  std::uint64_t lifecycle_confirmed = 0;
  std::uint64_t lifecycle_evicted = 0;
  std::uint64_t lifecycle_in_flight = 0;
  std::uint64_t cluster_rejected = 0;
  bool converged = false;
};

std::vector<std::string> check_tallies(const Tallies& t) {
  std::vector<std::string> v;
  if (t.open_loop) {
    if (!t.admission.reconciles())
      v.push_back("admission tallies do not reconcile: submitted " +
                  std::to_string(t.admission.submitted) + " != admitted " +
                  std::to_string(t.admission.admitted) + " + rejected " +
                  std::to_string(t.admission.rejected) + " + evicted " +
                  std::to_string(t.admission.evicted) + " + backpressured " +
                  std::to_string(t.admission.backpressured));
    if (t.admission.submitted != t.attempted)
      v.push_back("admission.submitted " +
                  std::to_string(t.admission.submitted) +
                  " != arrivals offered " + std::to_string(t.attempted));
  } else if (t.cluster_rejected != 0) {
    v.push_back("closed-loop workload had " +
                std::to_string(t.cluster_rejected) + " rejected payments");
  }
  if (t.lifecycle_submitted != t.lifecycle_confirmed + t.lifecycle_evicted +
                                   t.lifecycle_in_flight)
    v.push_back("lifecycle partition broken: submitted " +
                std::to_string(t.lifecycle_submitted) + " != confirmed " +
                std::to_string(t.lifecycle_confirmed) + " + evicted " +
                std::to_string(t.lifecycle_evicted) + " + in flight " +
                std::to_string(t.lifecycle_in_flight));
  if (t.lifecycle_confirmed > t.attempted)
    v.push_back("more confirmations than transactions offered");
  if (!t.converged) v.push_back("replicas did not converge by the end");
  return v;
}

// ---- Workload shapes -------------------------------------------------------

/// Simulated-time shape of a workload's run phase.
struct Shape {
  double window = 0;      // arrival window (sim s)
  int slices = 40;        // run_for slices across the window
  double max_settle = 0;  // cap on the settle phase (sim s)
  double max_quiet = 0;   // cap on the convergence tail (sim s)
  double tail_q = 0.99;   // percentile reported as sim_confirm_tail_s

  double slice() const { return window / slices; }
  double settle_slice() const { return slice() / 4; }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
  bool setup_only = false;  // stop after set-up (extra setup_s samples)
  std::string spans_path;
};

/// Shortened durations for the benchmark's own tests.
double scaled(const Options& o, double window, double floor_s) {
  return o.short_mode ? std::max(floor_s, window / 10.0) : window;
}

/// The first `count` payments core::generate_payments draws, with times
/// rescaled so payment count+1 would land at the end of `window`: Poisson
/// arrival times conditioned on an exact count, so every seed offers the
/// same number of transactions.
std::vector<PaymentEvent> exact_count_payments(WorkloadConfig wl,
                                               std::size_t count,
                                               double window, Rng& rng) {
  std::vector<PaymentEvent> pay;
  for (double d = 2.0 * static_cast<double>(count + 1) / wl.tx_rate + 10.0;
       pay.size() <= count; d *= 2) {
    Rng draw = rng;
    wl.duration = d;
    pay = generate_payments(wl, draw);
  }
  const double scale = window / pay[count].time;
  pay.resize(count);
  for (PaymentEvent& ev : pay) ev.time *= scale;
  return pay;
}

// ---- The generic run phase -------------------------------------------------

/// Workload-specific callbacks into the run phase.
struct Hooks {
  std::function<void(std::size_t from)> before_submit;  // traced only
  std::function<void()> at_boundary;                    // traced only
  std::function<void(bool on)> settle_load;             // may be empty
};

struct RunTrace {
  std::vector<double> slice_wall;    // per window slice
  std::vector<std::uint64_t> slice_submits;
  std::uint64_t submits = 0;         // workload submits fired so far
};

/// Runs the arrival window in slices, then settles until every tracked
/// transaction confirmed (or max_settle), then runs a quiet tail until the
/// replicas converge (or max_quiet). Returns the run-phase wall seconds.
template <typename Cluster>
double run_phase(Cluster& c, SpanLog& log, const Shape& shape, Hooks& hooks,
                 RunTrace& rt) {
  auto slice = [&](double seconds) {
    Scope s(log, Name::kRunFor);
    c.run_for(seconds);
  };
  auto boundary = [&] {
    if (log.enabled() && hooks.at_boundary) hooks.at_boundary();
  };
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < shape.slices; ++k) {
    const std::uint64_t before = rt.submits;
    const Clock::time_point ts = Clock::now();
    slice(shape.slice());
    rt.slice_wall.push_back(since(ts));
    rt.slice_submits.push_back(rt.submits - before);
    boundary();
  }
  const bool settle = c.lifecycle().in_flight() > 0 && hooks.settle_load;
  if (settle) hooks.settle_load(true);
  for (double settled = 0;
       c.lifecycle().in_flight() > 0 && settled < shape.max_settle;
       settled += shape.settle_slice()) {
    slice(shape.settle_slice());
    boundary();
  }
  if (settle) hooks.settle_load(false);
  for (double quiet = 0; !c.converged() && quiet < shape.max_quiet;
       quiet += shape.settle_slice())
    slice(shape.settle_slice());
  return since(t0);
}

/// Schedules a closed-loop payment list: each payment goes through
/// ClusterEngine::submit_payment at its due time, inside a submit span,
/// after the workload's traced-only before_submit shadow call.
template <typename Cluster>
void schedule_payments(Cluster& c, const std::vector<PaymentEvent>& pay,
                       SpanLog& log, Hooks& hooks, RunTrace& rt) {
  const double start = c.simulation().now();
  for (std::size_t i = 0; i < pay.size(); ++i) {
    c.simulation().schedule_at(
        start + pay[i].time, [&c, &pay, &log, &hooks, &rt, i] {
          ++rt.submits;
          if (log.enabled() && hooks.before_submit)
            hooks.before_submit(pay[i].from);
          Scope sub(log, Name::kSubmit, i);
          (void)c.submit_payment(pay[i].from, pay[i].to, pay[i].amount);
        });
  }
}

const storage::LedgerStore* store_of(const chain::ChainNode& n) {
  return n.chain().store();
}
const storage::LedgerStore* store_of(const lattice::LatticeNode& n) {
  return n.ledger().store();
}
const storage::LedgerStore* store_of(const tangle::TangleNode& n) {
  return n.tangle().store();
}

double hist_sum_s(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.find_histogram(name);
  return h ? h->summary().sum() * 1e-6 : 0.0;
}

/// Fills the deterministic outputs, runs the output checks and, on traced
/// reps, the per-layer metrics every workload shares.
template <typename Cluster>
void finish(Cluster& c, const Shape& shape, bool open_loop,
            std::uint64_t attempted, const SpanLog& log, const RunTrace& rt,
            RepResult& r) {
  const obs::MetricsRegistry& reg = c.metrics_registry();
  const obs::LatencyTracker& lc = c.lifecycle();
  SimOutputs& s = r.sim;
  s.attempted = attempted;
  s.confirmed = lc.confirmed();
  s.failed = attempted > s.confirmed ? attempted - s.confirmed : 0;
  s.events = c.simulation().events_fired();
  s.messages = c.network().traffic().messages;
  s.bytes = c.network().traffic().bytes;
  // Confirmed transactions per simulated second of service: the arrival
  // window plus the longest confirmation latency, which bounds when the
  // last transaction confirmed.
  if (const obs::Histogram* h = reg.find_histogram("latency.submit_to_confirm");
      h && h->count() > 0) {
    s.confirmed_tps = static_cast<double>(s.confirmed) /
                      (shape.window + h->summary().max());
    s.confirm_p50_s = h->percentiles().median();
    s.confirm_tail_s = h->percentiles().quantile(shape.tail_q);
    r.latency_samples = h->count();
  }
  r.tail_q = shape.tail_q;

  Tallies t;
  t.open_loop = open_loop;
  t.attempted = attempted;
  t.admission = c.admission();
  t.lifecycle_submitted = lc.submitted();
  t.lifecycle_confirmed = lc.confirmed();
  t.lifecycle_evicted = lc.evicted();
  t.lifecycle_in_flight = lc.in_flight();
  const obs::Counter* rejected = reg.find_counter("cluster.rejected");
  t.cluster_rejected = rejected ? rejected->value() : 0;
  t.converged = c.converged();
  r.violations = check_tallies(t);

  if (!log.enabled()) return;
  Metrics& m = r.layers;
  const double confirmed =
      std::max<double>(1.0, static_cast<double>(s.confirmed));

  // core: the harness's own calls.
  std::vector<double> submit_us = log.durations_us(Name::kSubmit);
  m["core.submit_s"] = {log.total_s(Name::kSubmit), "s"};
  m["core.submit_us.p50"] = {median(submit_us), "us"};
  m["core.submit_us.tail"] = {quantile(submit_us, 0.99), "us"};
  m["core.submit_calls"] = {static_cast<double>(submit_us.size()), "count"};
  m["core.settle_s"] = {log.total_s(Name::kSettle), "s"};
  m["core.setup.build_s"] = {r.build_s, "s"};
  m["core.setup.fund_s"] = {r.fund_s, "s"};
  m["core.setup.workload_s"] = {r.workload_s, "s"};
  const AdmissionStats& adm = c.admission();
  m["core.admission.submitted"] = {static_cast<double>(adm.submitted), "count"};
  m["core.admission.admitted"] = {static_cast<double>(adm.admitted), "count"};
  m["core.admission.evicted"] = {static_cast<double>(adm.evicted), "count"};
  m["core.admission.backpressured"] = {static_cast<double>(adm.backpressured),
                                       "count"};
  m["core.admission.rejected"] = {static_cast<double>(adm.rejected), "count"};
  m["core.admission.admit_ratio"] = {
      adm.submitted ? static_cast<double>(adm.admitted) /
                          static_cast<double>(adm.submitted)
                    : 0.0,
      "ratio"};

  // sim: run_for self time excludes the harness and shadow spans inside it.
  const double run_self = log.self_s(Name::kRunFor);
  m["sim.run_s"] = {run_self, "s"};
  m["sim.events"] = {static_cast<double>(s.events), "count"};
  m["sim.events_per_wall_s"] = {static_cast<double>(s.events) / r.run_s,
                                "1/s"};
  m["sim.heap_peak"] = {static_cast<double>(c.simulation().heap_peak()),
                        "count"};
  // Wall per submitted transaction in the last vs the first quarter of the
  // arrival window: 1 when the per-transaction cost stays flat.
  const std::size_t q = rt.slice_wall.size() / 4;
  double first_wall = 0, last_wall = 0;
  std::uint64_t first_tx = 0, last_tx = 0;
  for (std::size_t i = 0; i < q; ++i) {
    first_wall += rt.slice_wall[i];
    first_tx += rt.slice_submits[i];
    last_wall += rt.slice_wall[rt.slice_wall.size() - 1 - i];
    last_tx += rt.slice_submits[rt.slice_wall.size() - 1 - i];
  }
  m["sim.wall_growth"] = {
      first_tx && last_tx && first_wall > 0
          ? (last_wall / static_cast<double>(last_tx)) /
                (first_wall / static_cast<double>(first_tx))
          : 0.0,
      "ratio"};

  // net
  m["net.messages"] = {static_cast<double>(s.messages), "count"};
  m["net.bytes"] = {static_cast<double>(s.bytes), "B"};
  m["net.messages_per_tx"] = {static_cast<double>(s.messages) / confirmed,
                              "count"};
  m["net.gossip.dedup_evictions"] = {
      static_cast<double>(c.network().gossip_dedup_evictions()), "count"};

  // crypto
  const crypto::SignatureCache* sc = c.sigcache();
  const std::uint64_t lookups = sc ? sc->stats().hits + sc->stats().misses : 0;
  m["crypto.sigcache.lookups"] = {static_cast<double>(lookups), "count"};
  m["crypto.sigcache.hit_ratio"] = {sc ? sc->stats().hit_rate() : 0.0,
                                    "ratio"};

  // storage: memory-mode store bytes summed over the replicas.
  double log_bytes = 0, state_bytes = 0;
  for (std::size_t i = 0; i < c.node_count(); ++i) {
    if (const storage::LedgerStore* st = store_of(c.node(i))) {
      log_bytes += static_cast<double>(st->log_bytes());
      state_bytes += static_cast<double>(st->state_bytes());
    }
  }
  m["storage.log_bytes"] = {log_bytes, "B"};
  m["storage.state_bytes"] = {state_bytes, "B"};
  m["storage.log_bytes_per_tx"] = {
      log_bytes / (static_cast<double>(c.node_count()) * confirmed), "B"};

  // chain and lattice counters read from the registry (zero elsewhere).
  const obs::Histogram* connect =
      reg.find_histogram("profile.connect_block_us");
  m["chain.connect_s"] = {hist_sum_s(reg, "profile.connect_block_us"), "s"};
  m["chain.connect_us.p50"] = {
      connect && connect->count() ? connect->percentiles().median() : 0.0,
      "us"};
  m["chain.connect_us.tail"] = {
      connect && connect->count() ? connect->percentiles().p99() : 0.0, "us"};
  m["chain.blocks_connected"] = {
      connect ? static_cast<double>(connect->count()) : 0.0, "count"};
  m["lattice.work_s"] = {hist_sum_s(reg, "profile.lattice_work_us"), "s"};
  auto counter = [&](const char* name) {
    const obs::Counter* ctr = reg.find_counter(name);
    return ctr ? static_cast<double>(ctr->value()) : 0.0;
  };
  m["lattice.votes_cast"] = {counter("lattice.votes_cast"), "count"};
  m["lattice.elections_started"] = {counter("lattice.elections_started"),
                                    "count"};
  m["tangle.attached"] = {counter("tangle.attached"), "count"};
  m["tangle.gap.parked"] = {counter("tangle.gap.parked"), "count"};

  // Rep wall not covered by the rep span's direct children.
  const double rep_s = log.total_s(Name::kRep);
  m["obs.unattributed_share"] = {
      rep_s > 0 ? log.self_s(Name::kRep) / rep_s : 0.0, "ratio"};

  r.shadow_s = log.total_s(Name::kSelectTip) +
               log.total_s(Name::kCumulativeWeight) +
               log.total_s(Name::kSweep) + log.total_s(Name::kTotalWeight);
}

/// Zero-fills the per-ledger metrics a workload does not produce, so every
/// traced result carries the same metric names.
void fill_absent(Metrics& m) {
  static const std::pair<const char*, const char*> kLedgerMetrics[] = {
      {"chain.connect_us_per_tx", "us"},
      {"chain.mempool_end", "count"},
      {"lattice.total_weight_us", "us"},
      {"lattice.tally_s_est", "s"},
      {"tangle.select_tip_us.p50", "us"},
      {"tangle.select_tip_us.tail", "us"},
      {"tangle.select_tip_s_est", "s"},
      {"tangle.select_tip_run_share", "ratio"},
      {"tangle.cumulative_weight_us", "us"},
      {"tangle.sweep_us", "us"},
      {"tangle.tips_end", "count"},
  };
  for (const auto& [name, unit] : kLedgerMetrics)
    if (!m.count(name)) m[name] = {0.0, unit};
}

// ---- chain-utxo ------------------------------------------------------------

// A bitcoin-like UTXO chain saturated by a closed-loop payment list: the
// wallet's coin selection (core) rescans the coins reserved by the growing
// backlog, and every replica connects full blocks (chain, crypto, storage).
constexpr double kChainInterval = 600.0;
constexpr std::uint64_t kChainBlockBytes = 1'000'000;
constexpr double kChainRate = 14.0;  // against a ~11.4 tx/s block cap
constexpr double kChainWindow = 3600.0;
constexpr std::size_t kChainAccounts = 60;
// Uniform senders: each account holds ~1/60 of the backlog in reserved
// coins, so 600 genesis coins per account never run dry.
constexpr std::size_t kChainCoinsPerAccount = 600;

RepResult run_chain_utxo(const Options& o, SpanLog& log) {
  Shape shape;
  shape.window = scaled(o, kChainWindow, 360.0);
  shape.max_settle = 200 * kChainInterval;
  shape.max_quiet = 20 * kChainInterval;
  shape.tail_q = 0.999;

  RepResult r;
  const std::int32_t rep = log.open(Name::kRep);

  Clock::time_point t0 = Clock::now();
  std::unique_ptr<ChainCluster> cp;
  {
    Scope s(log, Name::kBuild);
    ChainClusterConfig cfg;
    cfg.params = chain::bitcoin_like();
    cfg.params.block_interval = kChainInterval;
    cfg.params.max_block_bytes = kChainBlockBytes;
    cfg.params.verify_pow = false;
    cfg.params.retarget_window = 0;
    cfg.params.initial_difficulty = 1e6;
    cfg.node_count = 4;
    cfg.miner_count = 2;
    cfg.total_hashrate = 1e6 / kChainInterval;
    cfg.validator_count = 4;
    cfg.topology = Topology::kComplete;
    // No link jitter: the network then draws no randomness, so the PoW
    // block schedule is the same for every workload seed.
    cfg.link = net::LinkParams{0.05, 0.0, 1.25e6};
    cfg.random_degree = 4;
    cfg.account_count = kChainAccounts;
    cfg.initial_balance = 1'000'000'000;
    cfg.genesis_outputs_per_account = kChainCoinsPerAccount;
    cfg.account_tx_data_mean = 0;
    cfg.crypto = CryptoConfig{};
    cfg.obs = ObsConfig{};
    cfg.storage = storage::StorageConfig{};
    cfg.traffic = TrafficConfig{};
    cfg.seed = kClusterSeed;
    cp = std::make_unique<ChainCluster>(cfg);
  }
  ChainCluster& c = *cp;
  r.build_s = since(t0);

  t0 = Clock::now();
  {
    Scope s(log, Name::kFund);
    c.start();
  }
  r.fund_s = since(t0);

  Hooks hooks;  // the chain needs no shadow calls
  RunTrace rt;
  std::vector<PaymentEvent> pay;
  t0 = Clock::now();
  {
    Scope s(log, Name::kWorkload);
    WorkloadConfig wl;
    wl.account_count = kChainAccounts;
    wl.tx_rate = kChainRate;
    wl.pick = AccountPick::kUniform;
    wl.zipf_s = 0.0;
    wl.min_amount = 1;
    wl.max_amount = 100;
    Rng rng(derive_seed(o.seed, 2));
    pay = exact_count_payments(
        wl, static_cast<std::size_t>(kChainRate * shape.window), shape.window,
        rng);
    schedule_payments(c, pay, log, hooks, rt);
  }
  r.workload_s = since(t0);
  if (o.setup_only) return r;

  r.run_s = run_phase(c, log, shape, hooks, rt);
  log.close(rep);
  finish(c, shape, false, pay.size(), log, rt, r);
  if (log.enabled()) {
    Metrics& m = r.layers;
    // Every replica connects every block once, so the per-transaction cost
    // divides by replicas x confirmed payments.
    m["chain.connect_us_per_tx"] = {
        m["chain.connect_s"].value * 1e6 /
            (static_cast<double>(c.node_count()) *
             std::max<double>(1.0, static_cast<double>(r.sim.confirmed))),
        "us"};
    m["chain.mempool_end"] = {static_cast<double>(c.node(0).mempool_size()),
                              "count"};
    fill_absent(m);
  }
  return r;
}

// ---- lattice-open ----------------------------------------------------------

// A nano-like lattice under open-loop Poisson traffic with Zipf senders and
// three fee classes, through per-owner admission queues: the densest event
// and message load, and vote tallies that call Ledger::total_weight.
constexpr double kLatticeRate = 120.0;
constexpr std::size_t kLatticeAccounts = 48;

RepResult run_lattice_open(const Options& o, SpanLog& log) {
  Shape shape;
  shape.window = scaled(o, 100.0, 10.0);
  shape.max_settle = 120.0;
  shape.max_quiet = 30.0;
  shape.tail_q = 0.999;

  RepResult r;
  const std::int32_t rep = log.open(Name::kRep);

  Clock::time_point t0 = Clock::now();
  std::unique_ptr<LatticeCluster> cp;
  {
    Scope s(log, Name::kBuild);
    LatticeClusterConfig cfg;
    cfg.params = lattice::LatticeParams{};
    cfg.params.work_bits = 2;
    cfg.params.verify_work = true;
    cfg.node_count = 6;
    cfg.representative_count = 2;
    cfg.topology = Topology::kComplete;
    cfg.link = net::LinkParams{0.04, 0.01, 1.25e7};
    cfg.random_degree = 4;
    cfg.account_count = kLatticeAccounts;
    cfg.initial_balance = 1'000'000'000;
    cfg.supply = 0;
    cfg.roles.clear();
    cfg.crypto = CryptoConfig{};
    cfg.obs = ObsConfig{};
    cfg.storage = storage::StorageConfig{};
    TrafficConfig& tc = cfg.traffic;
    tc = TrafficConfig{};
    tc.enabled = true;
    tc.process = ArrivalProcess::kPoisson;
    tc.rate = kLatticeRate;
    tc.duration = shape.window;
    tc.zipf_s = 1.0;
    tc.hot_receiver_fraction = 0.2;
    tc.hot_receiver_count = 4;
    tc.fee_class_count = 3;
    tc.base_fee = 1000;
    tc.min_amount = 1;
    tc.max_amount = 100;
    tc.queue_capacity_bytes = 16 * 1024;
    tc.payment_bytes = 168;
    tc.drain_interval = 0.2;
    // 16 per 0.2 s serves the hot owner (~31% of arrivals under Zipf s=1)
    // with room to spare, so the queues admit every arrival.
    tc.drain_burst = 16;
    tc.seed = derive_seed(o.seed, 3);
    cfg.seed = kClusterSeed;
    cp = std::make_unique<LatticeCluster>(cfg);
  }
  LatticeCluster& c = *cp;
  r.build_s = since(t0);

  t0 = Clock::now();
  {
    Scope s(log, Name::kFund);
    c.fund_accounts();
  }
  r.fund_s = since(t0);

  // The engine's own arrival loop (ClusterEngine::schedule_traffic),
  // replayed from here so each arrival's submit is a span of its own:
  // the same generator, one event ahead, into the same public
  // LatticeTraits::submit_traffic entry point.
  struct Arrivals {
    LatticeCluster* c;
    SpanLog* log;
    RunTrace* rt;
    std::vector<TrafficEvent> events;
    double start = 0;
    void schedule(std::size_t i) {
      if (i >= events.size()) return;
      c->simulation().schedule_at(start + events[i].time, [this, i] {
        ++rt->submits;
        {
          Scope sub(*log, Name::kSubmit, i);
          ++c->admission().submitted;
          c->submitted_counter().inc();
          LatticeTraits::submit_traffic(*c, events[i]);
        }
        schedule(i + 1);
      });
    }
  };
  RunTrace rt;
  Arrivals arr{&c, &log, &rt, {}, 0};
  t0 = Clock::now();
  {
    Scope s(log, Name::kWorkload);
    // Exact count, as exact_count_payments does for the closed loops.
    const std::size_t count =
        static_cast<std::size_t>(kLatticeRate * shape.window);
    TrafficConfig tc = c.config().traffic;
    tc.duration = 1e9;
    TrafficSource src(tc, c.account_count());
    TrafficEvent ev;
    while (arr.events.size() <= count && src.next(ev))
      arr.events.push_back(ev);
    const double scale = shape.window / arr.events.back().time;
    arr.events.resize(count);
    for (TrafficEvent& e : arr.events) e.time *= scale;
    arr.start = c.simulation().now();
    arr.schedule(0);
  }
  r.workload_s = since(t0);
  if (o.setup_only) return r;

  // Shadow: Ledger::total_weight on node 0 at each slice boundary, timed
  // over a few calls so one reading is not a single clock tick.
  std::vector<double> total_weight_us;
  Hooks hooks;
  hooks.at_boundary = [&] {
    constexpr int kCalls = 8;
    const lattice::Ledger& ledger = c.node(0).ledger();
    const Clock::time_point ts = Clock::now();
    Scope s(log, Name::kTotalWeight);
    for (int i = 0; i < kCalls; ++i) (void)ledger.total_weight();
    total_weight_us.push_back(since(ts) * 1e6 / kCalls);
  };
  r.run_s = run_phase(c, log, shape, hooks, rt);
  log.close(rep);
  finish(c, shape, true, arr.events.size(), log, rt, r);
  if (log.enabled()) {
    Metrics& m = r.layers;
    const double tw = median(total_weight_us);
    m["lattice.total_weight_us"] = {tw, "us"};
    // Every cast vote reaches every replica's tally, which calls
    // total_weight once: an upper-bound estimate of the tally cost.
    m["lattice.tally_s_est"] = {tw * 1e-6 * m["lattice.votes_cast"].value *
                                    static_cast<double>(c.node_count()),
                                "s"};
    fill_absent(m);
  }
  return r;
}

// ---- tangle-mcmc / tangle-uniform ------------------------------------------

// An iota-like tangle under a closed-loop payment list. With MCMC tip
// selection the walks' cumulative-weight BFS dominates; with uniform
// selection the attach-side cone checks and node 0's confirmation sweep do.
constexpr double kTangleRate = 16.0;
constexpr std::size_t kTangleAccounts = 48;

RepResult run_tangle(const Options& o, SpanLog& log,
                     tangle::TipStrategy strategy) {
  const bool mcmc = strategy == tangle::TipStrategy::kMcmc;
  Shape shape;
  shape.window = mcmc ? scaled(o, 30.0, 6.0) : scaled(o, 150.0, 15.0);
  shape.max_settle = 60.0;
  shape.max_quiet = 10.0;
  shape.tail_q = mcmc ? 0.975 : 0.995;

  RepResult r;
  const std::int32_t rep = log.open(Name::kRep);

  Clock::time_point t0 = Clock::now();
  std::unique_ptr<TangleCluster> cp;
  {
    Scope s(log, Name::kBuild);
    TangleClusterConfig cfg;
    cfg.params = tangle::TangleParams{};
    cfg.params.work_bits = 2;
    cfg.params.verify_work = true;
    cfg.params.alpha = 0.05;
    cfg.params.tip_selection = strategy;
    cfg.params.max_own_weight = 1;
    cfg.node_count = 6;
    cfg.topology = Topology::kComplete;
    cfg.link = net::LinkParams{0.04, 0.01, 1.25e7};
    cfg.random_degree = 4;
    cfg.account_count = kTangleAccounts;
    cfg.confirmation_threshold = 0.5;
    cfg.confirmation_sweep_interval = 1.0;
    cfg.crypto = CryptoConfig{};
    cfg.obs = ObsConfig{};
    cfg.storage = storage::StorageConfig{};
    cfg.traffic = TrafficConfig{};
    cfg.seed = kClusterSeed;
    cp = std::make_unique<TangleCluster>(cfg);
  }
  TangleCluster& c = *cp;
  r.build_s = since(t0);

  t0 = Clock::now();
  {
    Scope s(log, Name::kFund);
    c.start();
  }
  r.fund_s = since(t0);

  Rng shadow_rng(derive_seed(o.seed, 4));
  std::vector<double> cw_us, sweep_us;
  Hooks hooks;
  hooks.before_submit = [&](std::size_t from) {
    const tangle::Tangle& t = c.issuer_of(from).tangle();
    Scope s(log, Name::kSelectTip);
    (void)t.select_tip_with(t.params().tip_selection, shadow_rng);
  };
  hooks.at_boundary = [&] {
    const tangle::Tangle& t = c.node(0).tangle();
    {
      const Clock::time_point ts = Clock::now();
      Scope s(log, Name::kCumulativeWeight);
      (void)t.cumulative_weight(t.genesis());
      cw_us.push_back(since(ts) * 1e6);
    }
    {
      // The lifecycle confirmation sweep's scan: one past cone per tip.
      const Clock::time_point ts = Clock::now();
      Scope s(log, Name::kSweep);
      std::unordered_map<tangle::TxHash, std::size_t> approve_count;
      for (const tangle::TxHash& tip : t.tips())
        for (const tangle::TxHash& h : t.past_cone(tip)) ++approve_count[h];
      sweep_us.push_back(since(ts) * 1e6);
    }
  };
  // Settle load: after the window, filler transactions (outside the
  // workload, so untracked) keep approving tips until every workload
  // transaction crosses the confirmation threshold.
  struct Filler {
    TangleCluster* c;
    SpanLog* log;
    bool on = false;
    std::uint64_t seq = 0;
    void fire() {
      if (!on) return;
      const std::size_t a = static_cast<std::size_t>(seq % c->account_count());
      Writer w;
      w.u64(seq++);
      const Hash256 payload = crypto::tagged_hash(
          "dltbench/settle", ByteView{w.bytes().data(), w.size()});
      {
        Scope s(*log, Name::kSettle);
        (void)c->issuer_of(a).issue(c->account(a), payload);
      }
      c->simulation().schedule_in(1.0 / kTangleRate, [this] { fire(); });
    }
  };
  Filler filler{&c, &log};
  hooks.settle_load = [&](bool on) {
    filler.on = on;
    if (on) filler.fire();
  };

  RunTrace rt;
  std::vector<PaymentEvent> pay;
  t0 = Clock::now();
  {
    Scope s(log, Name::kWorkload);
    WorkloadConfig wl;
    wl.account_count = kTangleAccounts;
    wl.tx_rate = kTangleRate;
    wl.pick = AccountPick::kZipf;
    wl.zipf_s = 1.0;
    wl.min_amount = 1;
    wl.max_amount = 50;
    Rng rng(derive_seed(o.seed, 2));
    pay = exact_count_payments(
        wl, static_cast<std::size_t>(kTangleRate * shape.window), shape.window,
        rng);
    schedule_payments(c, pay, log, hooks, rt);
  }
  r.workload_s = since(t0);
  if (o.setup_only) return r;

  r.run_s = run_phase(c, log, shape, hooks, rt);
  log.close(rep);
  filler.on = false;
  finish(c, shape, false, pay.size(), log, rt, r);
  if (log.enabled()) {
    Metrics& m = r.layers;
    std::vector<double> sel = log.durations_us(Name::kSelectTip);
    const double sel_s = log.total_s(Name::kSelectTip);
    // issue() selects two tips; the shadow makes one selection per issue.
    const double est = 2.0 * sel_s;
    m["tangle.select_tip_us.p50"] = {median(sel), "us"};
    m["tangle.select_tip_us.tail"] = {quantile(sel, 0.99), "us"};
    m["tangle.select_tip_s_est"] = {est, "s"};
    // Share of the untraced run the selections would take: the run wall
    // less the shadow time the traced run added.
    m["tangle.select_tip_run_share"] = {est / (r.run_s - r.shadow_s),
                                        "ratio"};
    m["tangle.cumulative_weight_us"] = {median(cw_us), "us"};
    m["tangle.sweep_us"] = {median(sweep_us), "us"};
    m["tangle.tips_end"] = {static_cast<double>(c.node(0).tangle().tip_count()),
                            "count"};
    fill_absent(m);
  }
  return r;
}

// ---- Registry of workloads -------------------------------------------------

using RunFn = RepResult (*)(const Options&, SpanLog&);

RepResult run_tangle_mcmc(const Options& o, SpanLog& log) {
  return run_tangle(o, log, tangle::TipStrategy::kMcmc);
}
RepResult run_tangle_uniform(const Options& o, SpanLog& log) {
  return run_tangle(o, log, tangle::TipStrategy::kUniform);
}

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"chain-utxo", run_chain_utxo},
    {"lattice-open", run_lattice_open},
    {"tangle-mcmc", run_tangle_mcmc},
    {"tangle-uniform", run_tangle_uniform},
};

// ---- Host fingerprint and probes -------------------------------------------

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

bool has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b >> 29) & 1u;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string fingerprint() {
  return "nproc=" + std::to_string(cpu_count()) + " cpu=\"" + cpu_model() +
         "\" sha_ni=" + (has_sha_ni() ? "1" : "0") + " compiler=\"" +
         DLTBENCH_COMPILER + "\" build=" + DLTBENCH_BUILD_TYPE;
}

/// SHA-256 compression cost: one-shot digests of a fixed 64 KiB buffer,
/// median of five trials, in nanoseconds per 64-byte block.
double sha256_ns_per_block() {
  std::vector<Byte> buf(64 * 1024);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<Byte>(i * 131u + 7u);
  std::vector<double> trials;
  Hash256 acc{};
  for (int t = 0; t < 5; ++t) {
    const Clock::time_point t0 = Clock::now();
    for (int k = 0; k < 16; ++k) {
      buf[0] = acc[0];
      acc = crypto::Sha256::digest(ByteView{buf.data(), buf.size()});
    }
    trials.push_back(since(t0) * 1e9 /
                     (16.0 * static_cast<double>(buf.size() / 64)));
  }
  return median(trials);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Self-test -------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cout << "FAIL: " << what << "\n";
      ++failures;
    }
  };
  Tallies good;
  good.open_loop = true;
  good.attempted = 100;
  good.admission = AdmissionStats{100, 90, 4, 3, 3};
  good.lifecycle_submitted = 90;
  good.lifecycle_confirmed = 90;
  good.converged = true;
  expect(check_tallies(good).empty(), "consistent tallies pass");

  Tallies t = good;
  ++t.admission.admitted;
  expect(!check_tallies(t).empty(), "non-reconciling AdmissionStats fails");
  t = good;
  --t.admission.submitted;
  expect(!check_tallies(t).empty(), "admission.submitted != offered fails");
  t = good;
  --t.lifecycle_confirmed;
  expect(!check_tallies(t).empty(), "broken lifecycle partition fails");
  t = good;
  t.converged = false;
  expect(!check_tallies(t).empty(), "divergent replicas fail");
  t = good;
  t.open_loop = false;
  t.cluster_rejected = 1;
  expect(!check_tallies(t).empty(), "closed-loop rejection fails");

  SimOutputs a, b;
  a.confirm_p50_s = 1.0;
  b.confirm_p50_s = 1.0 + 1e-12;
  expect(!(a == b), "a changed sim guard is detected");
  std::cout << (failures ? "selftest FAILED" : "selftest ok") << "\n";
  return failures ? 1 : 0;
}

// ---- Main ------------------------------------------------------------------

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--short") {
      o.short_mode = true;
      continue;
    }
    const char* v = value();
    if (!v) return false;
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::string(v) == "1";
    else if (a == "--spans") o.spans_path = v;
    else return false;
  }
  return !o.workload.empty() && o.seconds > 0;
}

/// Shortest round-trip decimal form, so every digit measured is printed.
std::string full_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void put_metric(support::JsonObject& obj, const std::string& name,
                const Metric& m) {
  support::JsonObject v;
  v.put_raw("value", full_number(m.value));
  v.put("unit", m.unit);
  obj.put_raw(name, v.to_string());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") return selftest();
  Options o;
  if (!parse(argc, argv, o)) {
    std::cerr << "usage: dltbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--short] [--spans <path>]\n"
                 "       dltbench --selftest\n";
    return 2;
  }
  RunFn run = nullptr;
  for (const Workload& w : kWorkloads)
    if (o.workload == w.name) run = w.run;
  if (!run) {
    std::cerr << "unknown workload '" << o.workload << "'\n";
    return 2;
  }

  std::cout << "# host: " << fingerprint() << "\n";

  // Set-up takes milliseconds on most workloads, so setup_s is the median
  // of many: each rep's own set-up plus extra set-up-only rounds after
  // every rep, which spread the samples over the whole run.
  std::vector<double> setups;
  Options setup_only = o;
  setup_only.setup_only = true;
  auto setup_round = [&] {
    constexpr double kRoundS = 0.05;
    constexpr int kMaxPerRound = 40;
    double spent = 0;
    for (int i = 0; i < kMaxPerRound && spent < kRoundS; ++i) {
      SpanLog off(false);
      setups.push_back(run(setup_only, off).setup_s());
      spent += setups.back();
    }
  };

  // Reps repeat the same seed until the run ends as close to --seconds as
  // whole reps of the mean length allow. The traced invocation alternates untraced and
  // traced reps, so the tracing overhead is measured against the same
  // invocation's baseline.
  std::vector<RepResult> plain, traced;
  std::vector<std::string> violations;
  std::unique_ptr<SpanLog> last_spans;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0;; ++k) {
    const bool trace_rep = o.trace && k % 2 == 1;
    auto log = std::make_unique<SpanLog>(trace_rep);
    RepResult r = run(o, *log);
    for (const std::string& v : r.violations)
      violations.push_back("rep " + std::to_string(k) + ": " + v);
    std::cout << "# rep " << k << (trace_rep ? " traced" : "")
              << ": setup " << r.setup_s() << " s, run " << r.run_s
              << " s, " << static_cast<double>(r.sim.confirmed) / r.run_s
              << " tx/s\n";
    setups.push_back(r.setup_s());
    (trace_rep ? traced : plain).push_back(std::move(r));
    if (trace_rep) last_spans = std::move(log);
    if (!o.trace) setup_round();
    const double elapsed = since(t0);
    const double mean_rep = elapsed / static_cast<double>(k + 1);
    const bool enough = !o.trace || !traced.empty();
    if (enough && elapsed + mean_rep / 2 > o.seconds) break;
  }

  // Output check: every rep reproduces the first rep's sim outputs.
  const RepResult& first = plain.front();
  const SimOutputs& ref = first.sim;
  for (std::size_t i = 1; i < plain.size(); ++i)
    if (!(plain[i].sim == ref))
      violations.push_back("untraced rep " + std::to_string(i) +
                           " sim outputs differ from rep 0");
  for (std::size_t i = 0; i < traced.size(); ++i)
    if (!(traced[i].sim == ref))
      violations.push_back("traced rep " + std::to_string(i) +
                           " sim outputs differ from the untraced run");

  std::cout << "# workload " << o.workload << " seed " << o.seed << ": "
            << plain.size() + traced.size() << " reps, " << ref.attempted
            << " transactions offered, " << ref.confirmed << " confirmed, "
            << ref.events << " sim events\n";
  const double beyond =
      static_cast<double>(first.latency_samples) * (1.0 - first.tail_q);
  std::cout << "# sim_confirm_tail_s is p" << first.tail_q * 100.0 << " of "
            << first.latency_samples << " confirmation latencies (~"
            << static_cast<std::uint64_t>(beyond) << " samples beyond it)\n";

  support::JsonObject metrics;
  if (!o.trace) {
    std::vector<double> tput;
    for (const RepResult& r : plain)
      tput.push_back(static_cast<double>(r.sim.confirmed) / r.run_s);
    put_metric(metrics, "tx_per_wall_s", {median(tput), "1/s"});
    put_metric(metrics, "setup_s", {median(setups), "s"});
    put_metric(metrics, "peak_rss_mb", {peak_rss_mb(), "MB"});
    put_metric(metrics, "sim_confirmed_tps", {ref.confirmed_tps, "1/s"});
    put_metric(metrics, "sim_confirm_p50_s", {ref.confirm_p50_s, "s"});
    put_metric(metrics, "sim_confirm_tail_s", {ref.confirm_tail_s, "s"});
  } else {
    Metrics layers;
    for (const auto& [name, m] : traced.front().layers) {
      std::vector<double> xs;
      for (const RepResult& r : traced) xs.push_back(r.layers.at(name).value);
      layers[name] = {median(xs), m.unit};
    }
    layers["crypto.sha256.ns_per_block"] = {sha256_ns_per_block(), "ns"};
    // Tracing overhead: traced run wall less its shadow calls, against the
    // untraced reps of this invocation.
    std::vector<double> plain_run, traced_run;
    for (const RepResult& r : plain) plain_run.push_back(r.run_s);
    for (const RepResult& r : traced)
      traced_run.push_back(r.run_s - r.shadow_s);
    layers["obs.trace_overhead_share"] = {
        median(traced_run) / median(plain_run) - 1.0, "ratio"};
    for (const auto& [name, m] : layers) put_metric(metrics, name, m);
    if (!o.spans_path.empty()) {
      std::ofstream out(o.spans_path);
      last_spans->write_jsonl(out);
      if (!out) violations.push_back("cannot write spans to " + o.spans_path);
    }
  }

  for (const std::string& v : violations)
    std::cout << "# violation: " << v << "\n";
  support::JsonObject result;
  result.put("correct", violations.empty());
  result.put("attempted", ref.attempted);
  result.put("failed", ref.failed);
  result.put_raw("metrics", metrics.to_string());
  std::cout << result.to_string() << std::endl;
  return violations.empty() ? 0 : 1;
}
