// Observability layer (ISSUE 2): metrics registry semantics, tracer ring
// behaviour, JSONL escaping, and the determinism contract — identical
// seeds give byte-identical traces, and tracing on/off never changes a
// RunMetrics value.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"

namespace dlt::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, CounterCreateOnUseAndAccumulate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("chain.blocks_mined"), nullptr);
  Counter& c = reg.counter("chain.blocks_mined");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same metric; the reference stays stable even
  // after unrelated registrations (map nodes don't move).
  Counter& again = reg.counter("chain.blocks_mined");
  EXPECT_EQ(&again, &c);
  for (int i = 0; i < 64; ++i) reg.counter("filler." + std::to_string(i));
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.find_counter("chain.blocks_mined"), &c);
}

TEST(MetricsRegistry, GaugeLastWriteWins) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("mempool.size");
  g.set(10.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(MetricsRegistry, HistogramMomentsAndPercentiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("latency");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.summary().mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.summary().min(), 1.0);
  EXPECT_DOUBLE_EQ(h.summary().max(), 100.0);
  EXPECT_NEAR(h.percentiles().median(), 50.5, 1.0);
  EXPECT_NEAR(h.percentiles().p95(), 95.0, 1.5);
}

TEST(MetricsRegistry, JsonIsNameOrderedAndComplete) {
  MetricsRegistry reg;
  // Register deliberately out of name order.
  reg.counter("zeta").inc(2);
  reg.counter("alpha").inc(1);
  reg.gauge("mid").set(7.5);
  reg.histogram("lat").observe(1.0);
  const std::string json = reg.to_json().to_string();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  EXPECT_NE(json.find("\"alpha\":1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\":2"), std::string::npos);
}

TEST(MetricsRegistry, HistogramJsonExportsP999) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat");
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  const std::string json = reg.to_json().to_string();
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
  EXPECT_NEAR(h.percentiles().p999(), 999.0, 1.5);
}

// ---------------------------------------------------------- latency tracker

TEST(LatencyTracker, StampsStagesAndFeedsHistograms) {
  MetricsRegistry reg;
  Tracer tracer;
  tracer.enable(64);
  LatencyTracker lt;
  lt.enable(Probe{&reg, &tracer});

  lt.on_submit(7, 1.0, 0);
  EXPECT_TRUE(lt.on_admit(7, 1.5, 0));
  EXPECT_TRUE(lt.on_include(7, 3.0, 0, 42));
  EXPECT_EQ(lt.in_flight(), 1u);
  EXPECT_TRUE(lt.on_confirm(7, 10.0, 0, 42));
  EXPECT_EQ(lt.in_flight(), 0u);
  EXPECT_EQ(lt.submitted(), 1u);
  EXPECT_EQ(lt.confirmed(), 1u);

  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.submit_to_admit")->summary().mean(), 0.5);
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.admit_to_include")->summary().mean(), 1.5);
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.include_to_confirm")->summary().mean(),
      7.0);
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.submit_to_confirm")->summary().mean(),
      9.0);

  // One typed trace event per stage, all keyed by the same id.
  EXPECT_EQ(tracer.count_of(EventType::kTxSubmitted), 1u);
  EXPECT_EQ(tracer.count_of(EventType::kTxAdmitted), 1u);
  EXPECT_EQ(tracer.count_of(EventType::kTxIncluded), 1u);
  EXPECT_EQ(tracer.count_of(EventType::kTxConfirmed), 1u);
  for (const auto& ev : tracer.events()) EXPECT_EQ(ev.a, 7u);

  // Retired entries reject late stamps.
  EXPECT_FALSE(lt.on_confirm(7, 11.0, 0));
}

TEST(LatencyTracker, UnknownIdsReturnFalseAndRecordNothing) {
  MetricsRegistry reg;
  LatencyTracker lt;
  lt.enable(Probe{&reg, nullptr});
  // Funding sends / direct test submissions never pass through on_submit,
  // so stage stamps for them must not pollute the workload histograms.
  EXPECT_FALSE(lt.on_admit(99, 1.0, 0));
  EXPECT_FALSE(lt.on_include(99, 2.0, 0));
  EXPECT_FALSE(lt.on_confirm(99, 3.0, 0));
  EXPECT_EQ(reg.find_histogram("latency.submit_to_confirm")->count(), 0u);
  EXPECT_EQ(lt.submitted(), 0u);
}

TEST(LatencyTracker, FirstStampWinsAndMissingStagesDegrade) {
  MetricsRegistry reg;
  LatencyTracker lt;
  lt.enable(Probe{&reg, nullptr});

  lt.on_submit(1, 1.0, 0);
  lt.on_submit(1, 2.0, 0);            // duplicate submit ignored
  EXPECT_TRUE(lt.on_admit(1, 3.0, 0));
  EXPECT_TRUE(lt.on_admit(1, 4.0, 0));  // restamp ignored
  // Confirm without include: only the end-to-end histogram advances.
  EXPECT_TRUE(lt.on_confirm(1, 5.0, 0));
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.submit_to_admit")->summary().mean(), 2.0);
  EXPECT_EQ(reg.find_histogram("latency.admit_to_include")->count(), 0u);
  EXPECT_EQ(reg.find_histogram("latency.include_to_confirm")->count(), 0u);
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.submit_to_confirm")->summary().mean(), 4.0);
}

TEST(LatencyTracker, UnincludeAllowsRestampAfterReorg) {
  MetricsRegistry reg;
  LatencyTracker lt;
  lt.enable(Probe{&reg, nullptr});
  lt.on_submit(5, 0.0, 0);
  EXPECT_TRUE(lt.on_include(5, 1.0, 0));
  lt.on_uninclude(5);                    // block disconnected
  EXPECT_TRUE(lt.on_include(5, 6.0, 0));  // re-included later
  EXPECT_TRUE(lt.on_confirm(5, 8.0, 0));
  EXPECT_DOUBLE_EQ(
      reg.find_histogram("latency.include_to_confirm")->summary().mean(),
      2.0);
}

TEST(LatencyTracker, DisabledTrackerIsInert) {
  LatencyTracker lt;
  EXPECT_FALSE(lt.enabled());
  lt.on_submit(1, 0.0, 0);
  EXPECT_FALSE(lt.on_admit(1, 1.0, 0));
  EXPECT_FALSE(lt.on_confirm(1, 2.0, 0));
  EXPECT_EQ(lt.in_flight(), 0u);
}

TEST(LatencyTracker, CaptureSetsInFlightGauge) {
  MetricsRegistry reg;
  LatencyTracker lt;
  lt.enable(Probe{&reg, nullptr});
  lt.on_submit(1, 0.0, 0);
  lt.on_submit(2, 0.0, 0);
  lt.capture();
  EXPECT_DOUBLE_EQ(reg.find_gauge("latency.in_flight")->value(), 2.0);
  lt.on_confirm(1, 1.0, 0);
  lt.capture();
  EXPECT_DOUBLE_EQ(reg.find_gauge("latency.in_flight")->value(), 1.0);
}

// ------------------------------------------------------------------ tracer

TEST(Tracer, DisabledRecordIsNoOp) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.record(1.0, EventType::kBlockMined, 0, 1, 2);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, RecordsTypedEventsInOrder) {
  Tracer tracer;
  tracer.enable(16);
  tracer.record(1.0, EventType::kBlockMined, 3, 10, 4);
  tracer.record(2.5, EventType::kReorgApplied, 1, 2, 12);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.count_of(EventType::kBlockMined), 1u);
  EXPECT_EQ(tracer.count_of(EventType::kReorgApplied), 1u);
  EXPECT_EQ(tracer.count_of(EventType::kVoteCast), 0u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[0].type, EventType::kBlockMined);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[1].a, 2u);
  EXPECT_EQ(events[1].b, 12u);
}

TEST(Tracer, RingOverflowKeepsNewestAndCountsDropped) {
  Tracer tracer;
  tracer.enable(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    tracer.record(static_cast<double>(i), EventType::kMessageSent, 0, i, 0);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first unwrap of the most recent capacity_ events: 6,7,8,9.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 6 + i);
}

TEST(Tracer, ReenableResetsState) {
  Tracer tracer;
  tracer.enable(4);
  tracer.record(1.0, EventType::kBlockMined, 0);
  tracer.enable(8);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.events().empty());
  tracer.disable();
  EXPECT_FALSE(tracer.enabled());
}

TEST(Tracer, JsonlOneObjectPerLineWithTypedFields) {
  Tracer tracer;
  tracer.enable(8);
  tracer.record(12.5, EventType::kReorgApplied, 3, 2, 40);
  tracer.record(13.0, EventType::kBlockMined, 1, 41, 7);
  const std::string jsonl = tracer.to_jsonl();
  std::istringstream in(jsonl);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ev\":\"reorg_applied\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"node\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"depth\":2"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ev\":\"block_mined\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"txs\":7"), std::string::npos);
}

TEST(Tracer, SummaryJsonCountsByType) {
  Tracer tracer;
  tracer.enable(4);
  for (int i = 0; i < 6; ++i)
    tracer.record(static_cast<double>(i), EventType::kVoteCast, 0);
  const std::string summary = tracer.summary_json().to_string();
  EXPECT_NE(summary.find("\"recorded\":6"), std::string::npos);
  EXPECT_NE(summary.find("\"dropped\":2"), std::string::npos);
  EXPECT_NE(summary.find("\"vote_cast\":6"), std::string::npos);
}

TEST(Tracer, CapacityFromEnv) {
  unsetenv("DLT_TRACE");
  EXPECT_EQ(trace_capacity_from_env(), 0u);
  setenv("DLT_TRACE", "0", 1);
  EXPECT_EQ(trace_capacity_from_env(), 0u);
  setenv("DLT_TRACE", "1", 1);
  EXPECT_EQ(trace_capacity_from_env(), std::size_t{1} << 20);
  setenv("DLT_TRACE", "4096", 1);
  EXPECT_EQ(trace_capacity_from_env(), 4096u);
  unsetenv("DLT_TRACE");
}

// --------------------------------------------------------- JSONL escaping

/// Minimal unescaper for the subset json_escape emits; round-tripping
/// through it proves exported strings parse back to the original bytes.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'u': {
        const int code = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out.push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default: out.push_back(s[i]);
    }
  }
  return out;
}

TEST(JsonEscape, RoundTripsControlAndQuoteCharacters) {
  const std::string nasty =
      "plain \"quoted\" back\\slash\nnewline\ttab\rcr\x01ctl";
  const std::string escaped = support::json_escape(nasty);
  // The escaped form is JSONL-safe: no raw newlines or quotes survive.
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\t'), std::string::npos);
  EXPECT_EQ(json_unescape(escaped), nasty);
}

// ---------------------------------------------------- determinism contract

core::ChainClusterConfig traced_fork_config() {
  core::ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 5.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 3;
  cfg.total_hashrate = 1e6 / 5.0;
  cfg.account_count = 8;
  cfg.link = net::LinkParams{1.0, 0.3, 1e7};  // delay → forks + reorgs
  cfg.seed = 11;
  cfg.obs.trace_capacity = 1u << 16;
  return cfg;
}

std::string run_traced_chain(core::ChainClusterConfig cfg) {
  core::ChainCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(7);
  core::WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 0.5;
  wl.duration = 300.0;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(400.0);
  EXPECT_TRUE(cluster.tracer().enabled());
  EXPECT_GT(cluster.tracer().recorded(), 0u);
  return cluster.tracer().to_jsonl();
}

TEST(TraceDeterminism, IdenticalSeedsGiveByteIdenticalJsonl) {
  const std::string a = run_traced_chain(traced_fork_config());
  const std::string b = run_traced_chain(traced_fork_config());
  EXPECT_EQ(a, b);
}

TEST(TraceDeterminism, LatticeIdenticalSeedsGiveByteIdenticalJsonl) {
  auto run_once = [] {
    core::LatticeClusterConfig cfg;
    cfg.node_count = 3;
    cfg.representative_count = 2;
    cfg.account_count = 6;
    cfg.params.work_bits = 2;
    cfg.seed = 99;
    cfg.obs.trace_capacity = 1u << 16;
    core::LatticeCluster cluster(cfg);
    cluster.fund_accounts();
    Rng wl_rng(42);
    core::WorkloadConfig wl;
    wl.account_count = 6;
    wl.tx_rate = 1.0;
    wl.duration = 30.0;
    wl.max_amount = 1000;
    cluster.schedule_workload(core::generate_payments(wl, wl_rng));
    cluster.run_for(60.0);
    EXPECT_GT(cluster.tracer().count_of(EventType::kSendIssued), 0u);
    return cluster.tracer().to_jsonl();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(TraceDeterminism, TracingOffChangesNoRunMetric) {
  auto run_once = [](std::size_t trace_capacity) {
    core::ChainClusterConfig cfg = traced_fork_config();
    cfg.obs.trace_capacity = trace_capacity;
    core::ChainCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(7);
    core::WorkloadConfig wl;
    wl.account_count = cfg.account_count;
    wl.tx_rate = 0.5;
    wl.duration = 300.0;
    cluster.schedule_workload(core::generate_payments(wl, wl_rng));
    cluster.run_for(400.0);
    return cluster.metrics();
  };
  const core::RunMetrics off = run_once(0);
  const core::RunMetrics on = run_once(1u << 16);
  EXPECT_EQ(off.submitted, on.submitted);
  EXPECT_EQ(off.rejected, on.rejected);
  EXPECT_EQ(off.included, on.included);
  EXPECT_EQ(off.confirmed, on.confirmed);
  EXPECT_EQ(off.pending_end, on.pending_end);
  EXPECT_EQ(off.reorgs, on.reorgs);
  EXPECT_EQ(off.orphaned_blocks, on.orphaned_blocks);
  EXPECT_EQ(off.max_reorg_depth, on.max_reorg_depth);
  EXPECT_EQ(off.blocks_produced, on.blocks_produced);
  EXPECT_EQ(off.messages, on.messages);
  EXPECT_EQ(off.message_bytes, on.message_bytes);
  EXPECT_EQ(off.inclusion_latency.count(), on.inclusion_latency.count());
  EXPECT_EQ(off.confirmation_latency.count(),
            on.confirmation_latency.count());
  if (off.confirmation_latency.count() > 0) {
    EXPECT_DOUBLE_EQ(off.confirmation_latency.median(),
                     on.confirmation_latency.median());
  }
}

TEST(ClusterMetricsExport, RegistryAndTraceSummarySectionsPresent) {
  core::ChainClusterConfig cfg = traced_fork_config();
  core::ChainCluster cluster(cfg);
  cluster.start();
  cluster.run_for(120.0);
  const std::string metrics = cluster.metrics_json().to_string();
  EXPECT_NE(metrics.find("\"chain.blocks_mined\""), std::string::npos);
  EXPECT_NE(metrics.find("\"sim.events_fired\""), std::string::npos);
  const std::string summary = cluster.trace_summary_json().to_string();
  EXPECT_NE(summary.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(summary.find("\"block_mined\""), std::string::npos);
}

}  // namespace
}  // namespace dlt::obs
