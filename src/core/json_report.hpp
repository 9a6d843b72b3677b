// Machine-readable bench reports.
//
// The JSON emitter itself lives in support/json.hpp so the observability
// layer (src/obs) can serialize without depending on core; this header
// re-exports it under the historical dlt::core names and adds the
// lifecycle-latency summary line the cluster benches print.
//
// Benches print human tables to stdout and additionally write
// BENCH_<name>.json via write_bench_report(), so the perf trajectory can be
// tracked across PRs by tooling (tools/bench_diff.py) instead of by
// eyeballing tables.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace dlt::core {

using support::JsonArray;
using support::JsonObject;
using support::json_escape;
using support::json_number;
using support::write_bench_report;

/// One-line human summary of the end-to-end lifecycle histogram
/// ("latency.submit_to_confirm" p50/p99, obs/latency.hpp) for bench
/// stdout. Empty when lifecycle tracking is off or nothing confirmed.
std::string latency_summary_line(const obs::MetricsRegistry& registry);

}  // namespace dlt::core
