// Shared metric wiring for the parallel block-validation pipeline
// (chain/lattice/tangle all report under the same `parallel.validate.*`
// names so benches and the determinism gate read one schema).
//
// Determinism contract: `batches` and `checks` count simulation work and
// are identical for a given seed at every worker count; `workers` reflects
// the pool size (tools/check.sh --determinism excludes it via
// bench_diff.py --ignore); `join_us` is wall-clock and carries the `_us`
// marker that keeps it out of every regression gate, like `profile.*`.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"
#include "obs/probe.hpp"

namespace dlt::obs {

struct ParallelValidationMetrics {
  Counter* batches = nullptr;   // blocks routed through the pipeline
  Counter* checks = nullptr;    // stateless checks sharded across workers
  Gauge* workers = nullptr;     // pool concurrency (caller included)
  Histogram* join_us = nullptr; // wall-clock shard start -> join complete

  void wire(const Probe& probe) {
    batches = probe.counter("parallel.validate.batches");
    checks = probe.counter("parallel.validate.checks");
    workers = probe.gauge("parallel.validate.workers");
    join_us = probe.histogram("parallel.validate.join_us");
  }

  void record_batch(std::size_t check_count, std::size_t worker_count) {
    inc(batches);
    inc(checks, check_count);
    set(workers, static_cast<double>(worker_count));
  }
};

}  // namespace dlt::obs
