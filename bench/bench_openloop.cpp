// E20 -- Open-loop heavy traffic with mempool admission control (ISSUE 10).
//
// The closed-loop workload benches (E8/E9) measure protocol ceilings by
// saturating the ledgers with a pre-drawn payment list. This bench drives
// the open-loop TrafficSource instead: arrivals fire on sim-time events
// independent of ledger progress, so offered load past the service rate
// has to go SOMEWHERE — the admission pipeline queues it, evicts it
// (fee-market displacement), or backpressures it, and the tallies must
// reconcile exactly:
//
//   admission.submitted == admitted + rejected + evicted + backpressured
//
// Each ledger sweeps offered load from under capacity to well past
// saturation and reports the offered-vs-achieved gap plus the latency
// knee: submit→confirm percentiles (overall and per fee class) grow
// sharply once arrivals outpace the drain, and the highest fee class
// buys its way past the queue (per-class p99 ordering).
//
// Determinism contract: every figure in BENCH_openloop.json is sim-time
// arithmetic from the dedicated traffic RNG stream, so the determinism
// gate diffs the report byte-for-byte across DLT_STORAGE settings.
//
// Gates (exit non-zero on violation):
//   - admission tallies reconcile on every row
//   - offered > achieved at the top sweep point of every ledger
//   - per-fee-class latency histograms are non-empty at the top point
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/json_report.hpp"
#include "core/lattice_cluster.hpp"
#include "core/table.hpp"
#include "core/tangle_cluster.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

constexpr std::size_t kAccounts = 24;

// Arrival windows are short (the determinism gate runs this bench six
// times); the sweep tops are chosen well past each ledger's service rate
// so the knee still shows. The tangle window is shorter still: MCMC tip
// selection walks cumulative weights, so wall-clock per attach grows with
// cone size and the leg's cost is superlinear in attached transactions.
constexpr double kChainDuration = 40.0;
constexpr double kDagDuration = 30.0;
constexpr double kTangleDuration = 10.0;

struct ClassStat {
  std::uint32_t cls = 0;
  std::uint64_t count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
};

struct Row {
  std::string system;
  double offered_target = 0;  // configured traffic rate
  double offered = 0;         // arrivals actually fired / duration
  double achieved = 0;        // traffic txs confirmed / duration
  std::uint64_t confirmed = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t submitted = 0, admitted = 0, rejected = 0, evicted = 0,
                 backpressured = 0;
  bool reconciles = false;
  std::uint64_t lat_count = 0;
  double p50 = 0, p99 = 0, p999 = 0;
  std::vector<ClassStat> classes;
  std::string metrics_json;
  std::string trace_summary_json;
};

void read_histograms(const obs::MetricsRegistry& reg, std::size_t classes,
                     Row& row) {
  if (const obs::Histogram* h =
          reg.find_histogram("latency.submit_to_confirm")) {
    row.lat_count = h->count();
    if (h->count() > 0) {
      row.p50 = h->percentiles().median();
      row.p99 = h->percentiles().p99();
      row.p999 = h->percentiles().p999();
    }
  }
  for (std::size_t k = 0; k < classes; ++k) {
    const obs::Histogram* h = reg.find_histogram(
        "latency.class." + std::to_string(k) + ".submit_to_confirm");
    ClassStat cs;
    cs.cls = static_cast<std::uint32_t>(k);
    if (h && h->count() > 0) {
      cs.count = h->count();
      cs.p50 = h->percentiles().median();
      cs.p99 = h->percentiles().p99();
      cs.p999 = h->percentiles().p999();
    }
    row.classes.push_back(cs);
  }
}

template <typename Cluster>
Row collect(Cluster& cluster, const std::string& system, double rate,
            double duration, const std::string& trace_path) {
  Row row;
  row.system = system;
  row.offered_target = rate;
  const RunMetrics m = cluster.metrics();
  row.submitted = m.admission_submitted;
  row.admitted = m.admission_admitted;
  row.rejected = m.admission_rejected;
  row.evicted = m.admission_evicted;
  row.backpressured = m.admission_backpressured;
  row.reconciles = row.submitted == row.admitted + row.rejected +
                                        row.evicted + row.backpressured;
  row.offered = static_cast<double>(row.submitted) / duration;
  // Achieved = traffic transactions confirmed (the lifecycle tracker only
  // holds engine-submitted txs, so funding/setup blocks never pollute it).
  row.confirmed = cluster.lifecycle().confirmed();
  row.in_flight = cluster.lifecycle().in_flight();
  row.achieved = static_cast<double>(row.confirmed) / duration;
  read_histograms(cluster.metrics_registry(),
                  cluster.config().traffic.fee_class_count, row);
  row.metrics_json = cluster.metrics_json().to_string();
  row.trace_summary_json = cluster.trace_summary_json().to_string();
  if (!trace_path.empty() && cluster.tracer().recorded() > 0) {
    if (cluster.tracer().export_jsonl(trace_path))
      std::cout << "Wrote " << trace_path << "\n";
  }
  return row;
}

/// Shared traffic shape: one sweep point's rate, duration and admission
/// queue capacity over the TrafficConfig defaults.
TrafficConfig traffic_config(double rate, double duration,
                             std::uint64_t queue_bytes) {
  TrafficConfig tc;
  tc.enabled = true;
  tc.queue_capacity_bytes = queue_bytes;
  tc.rate = rate;
  tc.duration = duration;
  return tc;
}

// pos-like account chain: 4 s blocks, 8M gas. Intrinsic-gas payments cap
// inclusion near 95 TPS, but the mempool byte cap (~48 KiB) bites first,
// so the top sweep point evicts and backpressures.
Row run_chain(double rate, const std::string& trace_path = {}) {
  chain::ChainParams params = chain::pos_like();
  params.verify_pow = false;
  params.retarget_window = 0;

  ChainClusterConfig cfg;
  cfg.params = params;
  storage::apply_env_storage(cfg.storage);  // DLT_STORAGE
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.validator_count = 4;
  cfg.total_hashrate = 1e6 / params.block_interval;
  cfg.params.initial_difficulty = 1e6;
  cfg.account_count = kAccounts;
  cfg.initial_balance = 1'000'000'000;
  cfg.seed = 23;
  cfg.traffic = traffic_config(rate, kChainDuration, 48 * 1024);
  ChainCluster cluster(cfg);
  cluster.start();
  cluster.schedule_traffic();
  // Tail: depth-11 confirmation needs ~11 blocks past the last arrival.
  cluster.run_for(kChainDuration +
                  params.block_interval *
                      (cfg.params.confirmation_depth + 2.0));
  return collect(cluster, "pos-like", rate, kChainDuration, trace_path);
}

// nano-like lattice: admission queues in front of each owner node,
// aggregate service 4 nodes x 4/0.2 s = 80 tx/s but Zipf-skewed onto the
// hot owner, which saturates well below that.
Row run_lattice(double rate, const std::string& trace_path = {}) {
  LatticeClusterConfig cfg;
  cfg.node_count = 4;
  cfg.representative_count = 2;
  cfg.account_count = kAccounts;
  cfg.initial_balance = 50'000'000;
  cfg.params.work_bits = 2;
  storage::apply_env_storage(cfg.storage);
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.seed = 23;
  cfg.traffic = traffic_config(rate, kDagDuration, 16 * 1024);
  LatticeCluster cluster(cfg);
  cluster.fund_accounts();
  cluster.schedule_traffic();
  cluster.run_for(kDagDuration + 20.0);  // vote quorum settles fast
  return collect(cluster, "nano-like", rate, kDagDuration, trace_path);
}

// iota-like tangle: same per-issuer admission queues; confirmation is the
// recurring tip-cone confidence sweep on the reference replica.
Row run_tangle(double rate, const std::string& trace_path = {}) {
  TangleClusterConfig cfg;
  cfg.node_count = 4;
  cfg.account_count = kAccounts;
  cfg.params.work_bits = 2;
  storage::apply_env_storage(cfg.storage);
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.seed = 23;
  cfg.traffic = traffic_config(rate, kTangleDuration, 8 * 1024);
  // Halve the per-queue drain so the fee market saturates inside the short
  // window the attach cost allows.
  cfg.traffic.drain_burst = 2;
  TangleCluster cluster(cfg);
  cluster.start();
  cluster.schedule_traffic();
  cluster.run_for(kTangleDuration + 20.0);
  return collect(cluster, "iota-like", rate, kTangleDuration, trace_path);
}

std::string class_summary(const Row& r) {
  std::string s;
  for (const ClassStat& c : r.classes) {
    if (!s.empty()) s += " ";
    s += "c" + std::to_string(c.cls) + ":" +
         (c.count ? fmt(c.p99, 1) : std::string("-"));
  }
  return s;
}

}  // namespace

int main() {
  std::cout << "=== E20: open-loop heavy traffic & admission control ===\n\n";

  // Sweep points: under capacity, near the knee, well past saturation.
  const double chain_sweep[] = {20.0, 60.0, 150.0};
  const double dag_sweep[] = {10.0, 30.0, 80.0};
  const double tangle_sweep[] = {10.0, 25.0, 60.0};

  // Wall-clock per leg goes to stdout only; the JSON stays deterministic.
  auto timed = [](const char* label, double rate, auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    Row row = fn();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "[" << label << " @" << rate << " tx/s: " << fmt(secs, 1)
              << "s wall]\n";
    return row;
  };
  std::vector<Row> rows;
  std::string metrics_section, trace_section;
  for (double rate : chain_sweep) {
    const bool reference = rate == chain_sweep[2];
    Row r = timed("chain", rate, [&] {
      return run_chain(rate, reference ? "TRACE_openloop.jsonl" : "");
    });
    if (reference) {
      metrics_section = r.metrics_json;
      trace_section = r.trace_summary_json;
    }
    rows.push_back(std::move(r));
  }
  // The saturated top points also export their traces, so the golden
  // digests pin the lattice and tangle admission queues too.
  for (double rate : dag_sweep)
    rows.push_back(timed("lattice", rate, [&] {
      return run_lattice(rate, rate == dag_sweep[2]
                                   ? "TRACE_openloop_lattice.jsonl"
                                   : "");
    }));
  for (double rate : tangle_sweep)
    rows.push_back(timed("tangle", rate, [&] {
      return run_tangle(rate, rate == tangle_sweep[2]
                                  ? "TRACE_openloop_tangle.jsonl"
                                  : "");
    }));

  Table t({"system", "offered", "fired/s", "achieved", "admitted", "rejected",
           "evicted", "backpressure", "p50 s", "p99 s", "class p99s"});
  for (const Row& r : rows) {
    t.row({r.system, fmt(r.offered_target, 0), fmt(r.offered, 1),
           fmt(r.achieved, 1), std::to_string(r.admitted),
           std::to_string(r.rejected), std::to_string(r.evicted),
           std::to_string(r.backpressured),
           r.lat_count ? fmt(r.p50, 2) : "-",
           r.lat_count ? fmt(r.p99, 2) : "-", class_summary(r)});
  }
  t.print();

  // ---- Gates --------------------------------------------------------------
  bool ok = true;
  for (const Row& r : rows) {
    if (!r.reconciles) {
      std::cout << "\nFAIL: " << r.system << " @" << r.offered_target
                << " tx/s does not reconcile: " << r.submitted
                << " != " << r.admitted << "+" << r.rejected << "+"
                << r.evicted << "+" << r.backpressured << "\n";
      ok = false;
    }
  }
  // Top sweep point per ledger: saturation must show as an
  // offered-vs-achieved gap and populated per-class histograms.
  for (std::size_t top : {2u, 5u, 8u}) {
    const Row& r = rows[top];
    if (r.offered <= r.achieved) {
      std::cout << "\nFAIL: " << r.system
                << " top point not saturated (offered " << fmt(r.offered, 1)
                << " <= achieved " << fmt(r.achieved, 1) << ")\n";
      ok = false;
    }
    for (const ClassStat& c : r.classes) {
      if (c.count == 0) {
        std::cout << "\nFAIL: " << r.system << " fee class " << c.cls
                  << " histogram is empty at the top sweep point\n";
        ok = false;
      }
    }
    if (r.evicted + r.backpressured == 0) {
      std::cout << "\nFAIL: " << r.system
                << " top point shows no admission pressure\n";
      ok = false;
    }
  }

  JsonArray rows_json;
  for (const Row& r : rows) {
    JsonObject adm;
    adm.put("submitted", r.submitted);
    adm.put("admitted", r.admitted);
    adm.put("rejected", r.rejected);
    adm.put("evicted", r.evicted);
    adm.put("backpressured", r.backpressured);
    adm.put("reconciles", r.reconciles);
    JsonArray classes;
    for (const ClassStat& c : r.classes) {
      JsonObject cj;
      cj.put("class", static_cast<std::uint64_t>(c.cls));
      cj.put("count", c.count);
      cj.put("p50_s", c.p50);
      cj.put("p99_s", c.p99);
      cj.put("p999_s", c.p999);
      classes.push_raw(cj.to_string());
    }
    JsonObject row;
    row.put("system", r.system);
    row.put("offered_tps", r.offered_target);
    row.put("fired_tps", r.offered);
    row.put("achieved_tps", r.achieved);
    row.put("confirmed", r.confirmed);
    row.put("in_flight", r.in_flight);
    row.put("latency_count", r.lat_count);
    row.put("latency_p50_s", r.p50);
    row.put("latency_p99_s", r.p99);
    row.put("latency_p999_s", r.p999);
    row.put_raw("admission", adm.to_string());
    row.put_raw("classes", classes.to_string());
    rows_json.push_raw(row.to_string());
  }
  JsonObject report;
  report.put("bench", "openloop");
  report.put_raw("sweep", rows_json.to_string());
  report.put_raw("metrics", metrics_section);
  report.put_raw("trace_summary", trace_section);
  write_bench_report("openloop", report);
  std::cout << "\nWrote BENCH_openloop.json\n";

  std::cout << "\nShape check: below the knee, achieved tracks offered and "
               "submit->confirm latency sits near the block/vote cadence; "
               "past it, the gap widens and the queues surface the fee "
               "market — low classes evict or backpressure while the top "
               "class holds a bounded p99 (it out-bids its way in).\n";
  if (!ok) std::cout << "\nE20 GATES FAILED\n";
  return ok ? 0 : 1;
}
