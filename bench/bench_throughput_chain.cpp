// E8 -- Paper §VI-A: blockchain throughput ceilings.
//
// "Bitcoin... 3 to 7 transactions per second"; "Ethereum's transaction
// rate [is] roughly between 7 to 15 transactions per second"; "the
// transition to PoS should decrease Ethereum's block generation time to 4
// seconds"; Visa processes 56,000 TPS. We saturate each chain and measure
// the achieved inclusion rate plus the §VI pending-transaction backlog.
#include <iostream>
#include <string>

#include "core/chain_cluster.hpp"
#include "core/json_report.hpp"
#include "core/table.hpp"
#include "obs/trace.hpp"
#include "storage/config.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

struct TpRun {
  double tps_included = 0;
  double tps_confirmed = 0;
  std::uint64_t pending = 0;
  double incl_median = 0;
  double conf_median = 0;
  std::uint64_t blocks = 0;
  std::string metrics_json;
  std::string trace_summary_json;
  std::string latency_line;
};

/// Saturating run: offered load is well above capacity; the measured
/// inclusion rate IS the protocol ceiling.
///
/// When `trace_path` is non-empty and DLT_TRACE is set, the run's event
/// trace is exported as JSONL (byte-identical across identical-seed runs).
TpRun run(chain::ChainParams params, double offered_tps, double duration,
          std::size_t accounts, const std::string& trace_path = {}) {
  params.verify_pow = false;
  params.retarget_window = 0;

  ChainClusterConfig cfg;
  cfg.params = params;
  storage::apply_env_storage(cfg.storage);  // DLT_STORAGE (disk legs)
  cfg.obs.trace_capacity = obs::trace_capacity_from_env();
  cfg.node_count = 4;
  cfg.miner_count = 2;
  cfg.validator_count = 4;
  cfg.total_hashrate = 1e6 / params.block_interval;
  cfg.params.initial_difficulty = 1e6;
  cfg.account_count = accounts;
  cfg.initial_balance = 1'000'000'000;
  // Enough independent coins that the wallet never throttles the offered
  // load (UTXO model only).
  cfg.genesis_outputs_per_account = static_cast<std::size_t>(
      offered_tps * duration / static_cast<double>(accounts)) + 2;
  if (params.tx_model == chain::TxModel::kAccount)
    cfg.account_tx_data_mean = 250;  // Ethereum-realistic gas weighting
  cfg.seed = 21;
  ChainCluster cluster(cfg);
  cluster.start();

  Rng wl_rng(55);
  WorkloadConfig wl;
  wl.account_count = accounts;
  wl.tx_rate = offered_tps;
  wl.duration = duration;
  wl.min_amount = 1;
  wl.max_amount = 100;
  cluster.schedule_workload(generate_payments(wl, wl_rng));
  // Run past the workload window (like the dag/tangle benches) so the
  // depth-k rule has room to confirm: a bitcoin-like run stopped dead at
  // `duration` seals ~6 blocks and nothing is ever 6 deep.
  cluster.run_for(duration + cfg.params.block_interval *
                                 (cfg.params.confirmation_depth + 2.0));

  RunMetrics m = cluster.metrics();
  TpRun out;
  // Rate up to the last sealed block (avoids end-of-window truncation on
  // long block intervals).
  const auto& bc = cluster.node(0).chain();
  const double span = bc.height() > 0
                          ? bc.at_height(bc.height())->header.timestamp
                          : duration;
  out.tps_included = static_cast<double>(m.included) / span;
  out.tps_confirmed = static_cast<double>(m.confirmed) / span;
  out.pending = m.pending_end;
  out.incl_median =
      m.inclusion_latency.count() ? m.inclusion_latency.median() : 0;
  out.conf_median =
      m.confirmation_latency.count() ? m.confirmation_latency.median() : 0;
  out.blocks = cluster.node(0).chain().height();
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
  std::cout << "=== E8 / §VI-A: blockchain transaction throughput ===\n\n";

  // Bitcoin: 1 MB / 600 s. Our UTXO payment (1 in, 2 out) is 146 bytes vs
  // Bitcoin's ~250-400 B average (richer scripts), so the same mechanism
  // lands in the same 3-7 TPS band once sizes are comparable. We report
  // both our raw measure and the 400-B-normalized figure.
  chain::ChainParams btc = chain::bitcoin_like();
  btc.block_interval = 600.0;

  chain::ChainParams eth = chain::ethereum_like();
  chain::ChainParams pos = chain::pos_like();

  std::cout << "Saturating load (offered well above capacity):\n";
  Table t({"system", "block interval", "cap", "measured TPS", "norm. TPS*",
           "pending at end", "inclusion median s", "confirm median s"});

  JsonObject systems_json;
  std::string metrics_section, trace_section;
  auto record = [&](const char* name, const TpRun& r) {
    JsonObject sys;
    sys.put("tps_included", r.tps_included);
    sys.put("tps_confirmed", r.tps_confirmed);
    sys.put("pending_at_end", r.pending);
    sys.put("inclusion_median_s", r.incl_median);
    sys.put("confirmation_median_s", r.conf_median);
    sys.put("blocks", r.blocks);
    systems_json.put_raw(name, sys.to_string());
  };

  {
    TpRun r = run(btc, 14.0, 3600.0, 60, "TRACE_throughput_chain.jsonl");
    metrics_section = r.metrics_json;       // reference run: bitcoin-like
    trace_section = r.trace_summary_json;
    if (!r.latency_line.empty())
      std::cout << r.latency_line << " (bitcoin-like reference run)\n";
    const double norm = r.tps_included * (146.0 / 400.0);
    t.row({"bitcoin-like", "600 s", "1 MB", fmt(r.tps_included, 2),
           fmt(norm, 2), std::to_string(r.pending), fmt(r.incl_median, 0),
           fmt(r.conf_median, 0)});
    record("bitcoin_like", r);
  }
  {
    TpRun r = run(eth, 40.0, 600.0, 60);  // avg tx ~38k gas (calldata)
    t.row({"ethereum-like", "15 s", "8M gas", fmt(r.tps_included, 2), "-",
           std::to_string(r.pending), fmt(r.incl_median, 0),
           fmt(r.conf_median, 0)});
    record("ethereum_like", r);
  }
  {
    TpRun r = run(pos, 90.0, 600.0, 60);
    t.row({"pos-like", "4 s", "8M gas", fmt(r.tps_included, 2), "-",
           std::to_string(r.pending), fmt(r.incl_median, 0),
           fmt(r.conf_median, 0)});
    record("pos_like", r);
  }
  t.row({"visa (reference)", "-", "-", "56000", "-", "-", "-", "-"});
  t.print();
  std::cout << "* bitcoin-like normalized to Bitcoin's ~400 B average "
               "transaction (our simulated payments are 146 B).\n";

  std::cout << "\nAdding miners does not add throughput (difficulty "
               "retargets to hold the interval, paper §VI-A):\n";
  Table t2({"miners", "blocks in 2000 s", "measured TPS"});
  JsonArray miners_json;
  for (std::size_t miners : {1u, 2u, 4u, 8u}) {
    chain::ChainParams p = chain::bitcoin_like();
    p.verify_pow = false;
    p.block_interval = 50.0;
    p.retarget_window = 10;  // live retargeting
    p.initial_difficulty = 1e6;

    ChainClusterConfig cfg;
    cfg.params = p;
    storage::apply_env_storage(cfg.storage);
    cfg.params.initial_difficulty = static_cast<double>(miners) * 1e6;
    cfg.node_count = std::max<std::size_t>(miners, 2);
    cfg.miner_count = miners;
    // Total hashrate grows with the miner count -- yet TPS stays flat.
    cfg.total_hashrate = static_cast<double>(miners) * (1e6 / 50.0);
    cfg.account_count = 30;
    cfg.initial_balance = 1'000'000'000;
    cfg.genesis_outputs_per_account = 2100;  // covers 30 TPS x 2000 s
    cfg.seed = 31;
    ChainCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(56);
    WorkloadConfig wl;
    wl.account_count = 30;
    wl.tx_rate = 30.0;
    wl.duration = 2000.0;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(2000.0);
    RunMetrics m = cluster.metrics();
    t2.row({std::to_string(miners),
            std::to_string(cluster.node(0).chain().height()),
            fmt(static_cast<double>(m.included) / 2000.0, 2)});
    JsonObject row;
    row.put("miners", static_cast<std::uint64_t>(miners));
    row.put("blocks", static_cast<std::uint64_t>(
                          cluster.node(0).chain().height()));
    row.put("tps", static_cast<double>(m.included) / 2000.0);
    miners_json.push_raw(row.to_string());
  }
  t2.print();

  JsonObject report;
  report.put("bench", "throughput_chain");
  report.put_raw("systems", systems_json.to_string());
  report.put_raw("miner_scaling", miners_json.to_string());
  report.put_raw("metrics", metrics_section);
  report.put_raw("trace_summary", trace_section);
  write_bench_report("throughput_chain", report);
  std::cout << "\nWrote BENCH_throughput_chain.json\n";

  std::cout
      << "\nShape check (paper §VI-A): the cap is block_size/interval "
         "(Bitcoin ~3-7 TPS normalized) and gas_limit/interval (Ethereum "
         "7-15 TPS; PoS at 4 s roughly one 15/4 multiple higher); the "
         "backlog grows without bound under saturating load (the paper's "
         "186,951 pending Bitcoin transactions), and extra miners only "
         "raise difficulty, never throughput.\n";
  return 0;
}
