// E18 -- Adversarial & fairness scenario suite (paper §III-§IV, extended
// by the SoK attack literature): attacker power × tip-selection strategy
// sweeps with measured safety metrics.
//
// Three scenario families, all driven by core/adversary.hpp actors against
// the same cluster engines the honest benches use:
//
//   parasite — a withheld double-spending side-tangle released at once;
//     attack.parasite.flip_probability measures how often a fresh
//     tip-selection walk approves the parasite side. Rises with attacker
//     power under every strategy; the MCMC walk (weight-biased) holds out
//     longest — the whitepaper's argument for it.
//   spam — lazy-tip flooding anchored at genesis;
//     attack.spam.honest_tip_share falls as spam outpaces honest issuance
//     (the Feng–King–Duffy tip-stationarity breakdown, reported via
//     tangle.tips.stationarity.{mean,variance}).
//   selfish — private mining against the chain cluster for paradigm
//     contrast; attack.selfish.revenue_share is the attacker's slice of
//     the active chain.
//
// Every run also reports fairness.inclusion_gini over per-issuer include
// rates from the lifecycle tracker. The zero-power column of each sweep
// is the honest baseline: byte-identical to a run with no adversary at
// all (tests/adversarial_test.cpp holds the trace bytes to that).
#include <iostream>
#include <string>

#include "core/adversary.hpp"
#include "core/json_report.hpp"
#include "core/table.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

constexpr double kTangleDuration = 10.0;  // honest workload window
constexpr double kTangleTail = 8.0;       // attack release + settling

TangleClusterConfig tangle_config(tangle::TipStrategy strategy,
                                  const std::string& trace_path) {
  TangleClusterConfig cfg;
  storage::apply_env_storage(cfg.storage);  // DLT_STORAGE (disk legs)
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  // DLT_TRACE_SINK streams the reference run write-through (ring optional).
  if (!trace_path.empty()) cfg.obs.trace_sink = obs::trace_sink_from_env();
  cfg.node_count = 4;
  cfg.account_count = 12;
  cfg.params.work_bits = 2;
  cfg.params.alpha = 0.05;
  cfg.params.tip_selection = strategy;
  cfg.seed = 31;
  return cfg;
}

struct TangleScenario {
  double power = 0.0;
  double flip_probability = 0.0;
  double honest_tip_share = 1.0;
  double gini = 0.0;
  double stat_mean = 0.0;
  double stat_variance = 0.0;
  std::size_t injected = 0;
  std::uint64_t tips_end = 0;
  std::string metrics_json;
  std::string trace_summary_json;
};

/// One tangle attack run: honest workload plus an adversary of the given
/// kind/power, tip-count stationarity sampled once per simulated second.
/// Parasite runs end the workload before the release (the withheld branch
/// races a settled honest tangle); spam runs keep honest traffic flowing
/// to the end (the metric is the steady-state competition for approvers).
TangleScenario run_tangle(AdversaryKind kind, tangle::TipStrategy strategy,
                          double power, const std::string& trace_path = {}) {
  TangleClusterConfig cfg = tangle_config(strategy, trace_path);
  TangleCluster cluster(cfg);

  AdversaryConfig ac;
  ac.kind = kind;
  ac.power = power;
  ac.node = 1;
  ac.start_time = 3.0;
  ac.release_time = kTangleDuration + 2.0;
  ac.interval = 1.0;
  TangleAdversary adversary(cluster, ac);

  cluster.start();
  adversary.start();

  Rng wl_rng(5);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 4.0;
  wl.duration = kind == AdversaryKind::kSpam
                    ? kTangleDuration + kTangleTail
                    : kTangleDuration;
  wl.max_amount = 50;
  cluster.schedule_workload(generate_payments(wl, wl_rng));

  // Interleaved 1s slices are trace-identical to one long run_for; each
  // boundary samples the reference replica's tip count.
  TipStationarity stationarity(16);
  const int slices = static_cast<int>(kTangleDuration + kTangleTail);
  for (int s = 0; s < slices; ++s) {
    cluster.run_for(1.0);
    stationarity.sample(cluster.node(0).tangle().tip_count());
  }

  adversary.measure();
  stationarity.publish(
      obs::Probe{&cluster.metrics_registry(), nullptr});

  TangleScenario out;
  out.power = power;
  out.flip_probability = adversary.flip_probability();
  out.honest_tip_share = adversary.honest_tip_share();
  out.gini = inclusion_gini(cluster.lifecycle());
  out.stat_mean = stationarity.mean();
  out.stat_variance = stationarity.variance();
  out.injected = adversary.txs_injected();
  out.tips_end = cluster.node(0).tangle().tip_count();
  out.metrics_json = cluster.metrics_json().to_string();
  out.trace_summary_json = cluster.trace_summary_json().to_string();
  if (!trace_path.empty() && cluster.tracer().enabled() &&
      !cluster.tracer().events().empty()) {  // sink-only mode has no ring
    if (cluster.tracer().export_jsonl(trace_path))
      std::cout << "Wrote " << trace_path << "\n";
  }
  return out;
}

struct SelfishScenario {
  double power = 0.0;
  double revenue_share = 0.0;
  std::uint64_t blocks_mined = 0;
  std::uint64_t blocks_released = 0;
  std::uint32_t height = 0;
  double gini = 0.0;
  std::string metrics_json;
};

SelfishScenario run_selfish(double power) {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.retarget_window = 0;
  cfg.params.block_interval = 5.0;
  cfg.params.initial_difficulty = 1e6;
  storage::apply_env_storage(cfg.storage);
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / cfg.params.block_interval;
  cfg.account_count = 12;
  cfg.initial_balance = 1'000'000'000;
  cfg.seed = 33;
  ChainCluster cluster(cfg);

  SelfishMinerConfig sc;
  sc.power = power;
  sc.node = 1;
  sc.start_time = 1.0;
  sc.poll_interval = 2.5;
  ChainSelfishMiner miner(cluster, sc);

  cluster.start();
  miner.start();

  const double duration = 120.0;
  Rng wl_rng(6);
  WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 1.0;
  wl.duration = duration;
  wl.max_amount = 100;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  cluster.run_for(duration + 6.0 * cfg.params.block_interval);

  miner.measure();
  SelfishScenario out;
  out.power = power;
  out.revenue_share = miner.revenue_share();
  out.blocks_mined = miner.blocks_mined();
  out.blocks_released = miner.blocks_released();
  out.height = cluster.node(0).chain().height();
  out.gini = inclusion_gini(cluster.lifecycle());
  out.metrics_json = cluster.metrics_json().to_string();
  return out;
}

std::string scenario_json(const TangleScenario& r,
                          tangle::TipStrategy strategy, const char* metric,
                          double value) {
  JsonObject row;
  row.put("power", r.power);
  row.put("strategy", tangle::to_string(strategy));
  row.put(metric, value);
  row.put("inclusion_gini", r.gini);
  row.put("stationarity_mean", r.stat_mean);
  row.put("stationarity_variance", r.stat_variance);
  row.put("injected", static_cast<std::uint64_t>(r.injected));
  row.put("tips_end", r.tips_end);
  return row.to_string();
}

}  // namespace

int main() {
  std::cout << "=== E18: adversarial & fairness scenario suite ===\n\n";

  const std::vector<tangle::TipStrategy> strategies{
      tangle::TipStrategy::kMcmc, tangle::TipStrategy::kUniform};
  const std::vector<double> powers{0.0, 0.25, 0.5, 0.75};

  JsonArray parasite_json, spam_json, selfish_json;
  std::string metrics_section, trace_section;

  std::cout << "Parasite chain: flip probability of the withheld "
               "double-spend vs attacker power (walk measured on the "
               "reference replica):\n";
  Table t1({"strategy", "power", "flip prob", "gini", "injected"});
  for (tangle::TipStrategy strategy : strategies) {
    for (double power : powers) {
      const bool reference = metrics_section.empty();
      TangleScenario r =
          run_tangle(AdversaryKind::kParasite, strategy, power,
                     reference ? "TRACE_adversarial.jsonl" : "");
      if (reference) {
        metrics_section = r.metrics_json;
        trace_section = r.trace_summary_json;
      }
      t1.row({std::string(tangle::to_string(strategy)), fmt(power, 2),
              fmt(r.flip_probability, 3), fmt(r.gini, 3),
              std::to_string(r.injected)});
      parasite_json.push_raw(scenario_json(r, strategy, "flip_probability",
                                           r.flip_probability));
    }
  }
  t1.print();
  std::cout << "Zero power = honest baseline (flip 0 by construction). The "
               "weight-biased MCMC walk resists the parasite longer than "
               "uniform tip selection at equal power.\n";

  std::cout << "\nLazy-tip spam: honest share of the reference replica's "
               "tips vs attacker power:\n";
  Table t2({"strategy", "power", "honest tip share", "tip-count var",
            "injected"});
  for (tangle::TipStrategy strategy : strategies) {
    for (double power : powers) {
      TangleScenario r = run_tangle(AdversaryKind::kSpam, strategy, power);
      t2.row({std::string(tangle::to_string(strategy)), fmt(power, 2),
              fmt(r.honest_tip_share, 3), fmt(r.stat_variance, 1),
              std::to_string(r.injected)});
      spam_json.push_raw(scenario_json(r, strategy, "honest_tip_share",
                                       r.honest_tip_share));
    }
  }
  t2.print();
  std::cout << "Spam anchored at genesis starves honest tips of approvers: "
               "the share falls and the tip-count process loses "
               "stationarity (variance grows with power).\n";

  std::cout << "\nSelfish mining (chain, for paradigm contrast): attacker "
               "revenue share of the active chain vs hash power:\n";
  Table t3({"power", "revenue share", "mined", "released", "height",
            "gini"});
  for (double power : {0.0, 0.2, 0.35, 0.45}) {
    SelfishScenario r = run_selfish(power);
    t3.row({fmt(r.power, 2), fmt(r.revenue_share, 3),
            std::to_string(r.blocks_mined),
            std::to_string(r.blocks_released), std::to_string(r.height),
            fmt(r.gini, 3)});
    JsonObject row;
    row.put("power", r.power);
    row.put("revenue_share", r.revenue_share);
    row.put("blocks_mined", r.blocks_mined);
    row.put("blocks_released", r.blocks_released);
    row.put("height", static_cast<std::uint64_t>(r.height));
    row.put("inclusion_gini", r.gini);
    selfish_json.push_raw(row.to_string());
  }
  t3.print();
  std::cout << "A withheld branch only pays once the attacker can outrun "
               "the public chain; below ~1/3 hash share the branch is "
               "usually abandoned (§IV-A's security argument).\n";

  JsonObject report;
  report.put("bench", "adversarial");
  report.put_raw("parasite", parasite_json.to_string());
  report.put_raw("spam", spam_json.to_string());
  report.put_raw("selfish", selfish_json.to_string());
  report.put_raw("metrics", metrics_section);
  report.put_raw("trace_summary", trace_section);
  write_bench_report("adversarial", report);
  std::cout << "\nWrote BENCH_adversarial.json\n";
  return 0;
}
