// E17 -- Paper §VI-B (extended): tangle throughput through the unified
// cluster engine.
//
// The paper's DAG discussion names IOTA's tangle as the other DAG family
// (§II-B footnote 1). Like the block-lattice, the tangle has no protocol
// throughput cap: every transaction approves two others, so issuers ARE
// the validators and capacity scales with offered load until the
// environment (per-tx proof of work, link bandwidth) pushes back. This
// bench drives TangleCluster — the same ClusterEngine that powers the
// chain and lattice throughput benches — so the §VI paradigm comparison
// covers all three ledgers with one metrics schema.
#include <iostream>
#include <string>

#include "core/json_report.hpp"
#include "core/table.hpp"
#include "core/tangle_cluster.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

struct TangleRun {
  double offered = 0;
  double achieved_tps = 0;
  double confirmed_tps = 0;
  std::uint64_t tips_end = 0;
  bool converged = false;
  std::string metrics_json;
  std::string trace_summary_json;
  std::string latency_line;
};

/// When `trace_path` is non-empty and DLT_TRACE is set, the run's event
/// trace is exported as JSONL (byte-identical across identical-seed runs).
TangleRun run(double offered_tps, double bandwidth, int work_bits,
              const std::string& trace_path = {}) {
  TangleClusterConfig cfg;
  storage::apply_env_storage(cfg.storage);  // DLT_STORAGE (disk legs)
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  // DLT_TRACE_SINK streams the reference run write-through (ring optional).
  if (!trace_path.empty()) cfg.obs.trace_sink = obs::trace_sink_from_env();
  cfg.node_count = 6;
  cfg.account_count = 48;
  cfg.params.work_bits = work_bits;
  cfg.params.alpha = 0.05;
  cfg.link = net::LinkParams{0.04, 0.01, bandwidth};
  cfg.seed = 77;
  TangleCluster cluster(cfg);
  cluster.start();

  // Cone walks are O(tangle size) per attach, so runtime grows
  // quadratically with duration × rate; keep the window tight enough for
  // the determinism gate to run this bench three times.
  const double duration = 25.0;
  Rng wl_rng(4);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = offered_tps;
  wl.duration = duration;
  wl.max_amount = 50;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(duration + 20.0);

  RunMetrics m = cluster.metrics();
  TangleRun out;
  out.offered = offered_tps;
  out.achieved_tps = static_cast<double>(m.included) / duration;
  out.confirmed_tps = static_cast<double>(m.confirmed) / duration;
  out.tips_end = m.pending_end;
  out.converged = cluster.converged();
  out.metrics_json = cluster.metrics_json().to_string();
  out.trace_summary_json = cluster.trace_summary_json().to_string();
  out.latency_line = latency_summary_line(cluster.metrics_registry());
  if (!trace_path.empty() && cluster.tracer().enabled() &&
      !cluster.tracer().events().empty()) {  // sink-only mode has no ring
    if (cluster.tracer().export_jsonl(trace_path))
      std::cout << "Wrote " << trace_path << "\n";
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== E17 / §VI-B: tangle throughput scales with offered load "
               "(unified engine) ===\n\n";

  auto tangle_json = [](const TangleRun& r, double bandwidth) {
    JsonObject row;
    row.put("offered_tps", r.offered);
    row.put("achieved_tps", r.achieved_tps);
    row.put("confirmed_tps", r.confirmed_tps);
    row.put("tips_end", r.tips_end);
    row.put("converged", r.converged);
    row.put("link_bandwidth", bandwidth);
    return row.to_string();
  };
  JsonArray generous_json, constrained_json;
  std::string metrics_section, trace_section;

  std::cout << "Generous environment (100 Mbit links, trivial work):\n";
  Table t1({"offered TPS", "achieved TPS", "confirmed TPS", "tips at end",
            "converged"});
  for (double offered : {2.0, 6.0, 16.0}) {
    const bool reference = metrics_section.empty();
    TangleRun r = run(offered, 1.25e7, 2,
                      reference ? "TRACE_throughput_tangle.jsonl" : "");
    if (reference) {
      metrics_section = r.metrics_json;
      trace_section = r.trace_summary_json;
      if (!r.latency_line.empty())
        std::cout << r.latency_line << " (reference run)\n";
    }
    t1.row({fmt(r.offered, 0), fmt(r.achieved_tps, 1),
            fmt(r.confirmed_tps, 1), std::to_string(r.tips_end),
            r.converged ? "yes" : "no"});
    generous_json.push_raw(tangle_json(r, 1.25e7));
  }
  t1.print();
  std::cout << "Every issuer validates two predecessors, so achieved tracks "
               "offered -- no block-interval knee.\n";

  std::cout << "\nConstrained network (links throttled; gossip floods share "
               "the pipe):\n";
  Table t2({"link bandwidth", "offered TPS", "achieved TPS", "tips at end",
            "converged"});
  for (double bw : {1.25e6, 1.0e4, 3.0e3}) {
    TangleRun r = run(16.0, bw, 2);
    t2.row({format_bytes(static_cast<std::uint64_t>(bw)) + "/s", "16",
            fmt(r.achieved_tps, 1), std::to_string(r.tips_end),
            r.converged ? "yes" : "no"});
    constrained_json.push_raw(tangle_json(r, bw));
  }
  t2.print();
  std::cout << "Issuance never slows (issuers are the validators), but "
               "shrinking links delay gossip and replicas drift apart -- "
               "the tangle's ceiling is the network, exactly the §VI-B "
               "claim for DAGs.\n";

  JsonObject report;
  report.put("bench", "throughput_tangle");
  report.put_raw("generous", generous_json.to_string());
  report.put_raw("constrained", constrained_json.to_string());
  report.put_raw("metrics", metrics_section);
  report.put_raw("trace_summary", trace_section);
  write_bench_report("throughput_tangle", report);
  std::cout << "\nWrote BENCH_throughput_tangle.json\n";
  return 0;
}
