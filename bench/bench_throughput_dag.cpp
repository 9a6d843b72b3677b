// E9 -- Paper §VI-B: DAG throughput.
//
// "There is no inherent cap in the transaction throughput in the protocol
// itself. However, peak throughput on a test reached on the main network
// was 306 TPS with an average of 105.75 TPS. The limit is currently
// determined by the quality of consumer grade hardware and network
// conditions."
//
// We drive the lattice at increasing offered load under (a) generous and
// (b) constrained network/work budgets: throughput tracks the offered
// load (no protocol ceiling) until the environment -- link bandwidth and
// per-block anti-spam work -- becomes the limit.
#include <cmath>
#include <iostream>
#include <string>

#include "core/json_report.hpp"
#include "core/lattice_cluster.hpp"
#include "core/table.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

struct DagRun {
  double offered = 0;
  double achieved_tps = 0;
  double confirm_median = 0;
  std::uint64_t unsettled = 0;
  std::string metrics_json;
  std::string trace_summary_json;
  std::string latency_line;
};

/// When `trace_path` is non-empty and DLT_TRACE is set, the run's event
/// trace is exported as JSONL (byte-identical across identical-seed runs).
DagRun run(double offered_tps, double bandwidth, int work_bits,
           const std::string& trace_path = {}) {
  LatticeClusterConfig cfg;
  storage::apply_env_storage(cfg.storage);  // DLT_STORAGE (disk legs)
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.node_count = 6;
  cfg.representative_count = 2;
  cfg.account_count = 48;
  cfg.params.work_bits = work_bits;
  // Work is solved for real: higher bits = slower issuance per user,
  // exactly Nano's spam throttle. To keep runtime sane we only verify.
  cfg.params.verify_work = work_bits <= 8;
  cfg.link = net::LinkParams{0.04, 0.01, bandwidth};
  cfg.seed = 77;
  LatticeCluster cluster(cfg);
  cluster.fund_accounts();

  const double duration = 40.0;
  Rng wl_rng(4);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = offered_tps;
  wl.duration = duration;
  wl.max_amount = 50;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(duration + 20.0);

  RunMetrics m = cluster.metrics();
  DagRun out;
  out.offered = offered_tps;
  // Included sends (minus the funding sends) over the workload window.
  const std::uint64_t funding = cfg.account_count;
  out.achieved_tps =
      static_cast<double>(m.included > funding ? m.included - funding : 0) /
      duration;
  out.confirm_median = m.confirmation_latency.count()
                           ? m.confirmation_latency.median()
                           : 0;
  out.unsettled = m.pending_end;
  out.metrics_json = cluster.metrics_json().to_string();
  out.trace_summary_json = cluster.trace_summary_json().to_string();
  out.latency_line = latency_summary_line(cluster.metrics_registry());
  if (!trace_path.empty() && cluster.tracer().recorded() > 0) {
    if (cluster.tracer().export_jsonl(trace_path))
      std::cout << "Wrote " << trace_path << "\n";
  }
  return out;
}

}  // namespace

int main() {
  std::cout << "=== E9 / §VI-B: DAG throughput is environment-bound, not "
               "protocol-bound ===\n\n";

  auto dag_json = [](const DagRun& r, double bandwidth) {
    JsonObject row;
    row.put("offered_tps", r.offered);
    row.put("achieved_tps", r.achieved_tps);
    row.put("confirm_median_s", r.confirm_median);
    row.put("unsettled", r.unsettled);
    row.put("link_bandwidth", bandwidth);
    return row.to_string();
  };
  JsonArray generous_json, constrained_json;
  std::string metrics_section, trace_section;

  std::cout << "Generous environment (100 Mbit links, trivial work):\n";
  Table t1({"offered TPS", "achieved TPS", "confirm median s", "unsettled"});
  for (double offered : {5.0, 20.0, 60.0, 120.0}) {
    const bool reference = metrics_section.empty();
    DagRun r = run(offered, 1.25e7, 2,
                   reference ? "TRACE_throughput_dag.jsonl" : "");
    if (reference) {
      metrics_section = r.metrics_json;
      trace_section = r.trace_summary_json;
      if (!r.latency_line.empty())
        std::cout << r.latency_line << " (reference run)\n";
    }
    t1.row({fmt(r.offered, 0), fmt(r.achieved_tps, 1),
            fmt(r.confirm_median, 3), std::to_string(r.unsettled)});
    generous_json.push_raw(dag_json(r, 1.25e7));
  }
  t1.print();
  std::cout << "No knee: achieved tracks offered -- contrast with the hard "
               "ceilings in bench_throughput_chain.\n";

  std::cout << "\nConstrained network (links throttled; blocks + votes "
               "must share the pipe):\n";
  Table t2({"link bandwidth", "offered TPS", "achieved TPS",
            "confirm median s", "unsettled at end"});
  for (double bw : {1.25e6, 1.0e5, 3.0e4, 1.0e4}) {
    DagRun r = run(120.0, bw, 2);
    t2.row({format_bytes(static_cast<std::uint64_t>(bw)) + "/s", "120",
            fmt(r.achieved_tps, 1), fmt(r.confirm_median, 3),
            std::to_string(r.unsettled)});
    constrained_json.push_raw(dag_json(r, bw));
  }
  t2.print();

  JsonObject report;
  report.put("bench", "throughput_dag");
  report.put_raw("generous", generous_json.to_string());
  report.put_raw("constrained", constrained_json.to_string());
  report.put_raw("metrics", metrics_section);
  report.put_raw("trace_summary", trace_section);
  write_bench_report("throughput_dag", report);
  std::cout << "\nWrote BENCH_throughput_dag.json\n";

  std::cout << "\nAnti-spam work as the per-user issuance throttle "
               "(paper §III-B; solving 2^bits hashes per block):\n";
  Table t3({"work bits", "expected hashes/block", "1-thread blocks/s*"});
  for (int bits : {8, 16, 20, 24}) {
    const double hashes = std::ldexp(1.0, bits);
    // ~2.5 MH/s single-thread SHA-256d (see bench_crypto on this host).
    t3.row({std::to_string(bits), format_si(hashes),
            fmt(2.5e6 / hashes, 2)});
  }
  t3.print();
  std::cout << "* the issuance-rate cap a consumer CPU faces per account; "
               "validators only verify (one hash), so the *network* stays "
               "uncapped.\n";

  std::cout
      << "\nShape check (paper §VI-B): the protocol imposes no cap; "
         "measured limits come from bandwidth (achieved TPS collapses as "
         "links shrink) and from the sender-side hashcash work -- matching "
         "Nano's observed 306 TPS peak / 105.75 TPS average being a "
         "hardware/network artifact.\n";
  return 0;
}
