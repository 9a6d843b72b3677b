// Aggregated run metrics reported by the cluster drivers (paper §IV-§VI).
#pragma once

#include <cstdint>
#include <string>

#include "support/stats.hpp"

namespace dlt::core {

struct RunMetrics {
  std::string system;
  double sim_duration = 0.0;

  std::uint64_t submitted = 0;     // payments injected
  std::uint64_t rejected = 0;      // refused at submission
  std::uint64_t included = 0;      // landed in the ledger
  std::uint64_t confirmed = 0;     // reached the confirmation rule
  std::uint64_t pending_end = 0;   // backlog at end of run (§VI)

  Percentiles inclusion_latency;
  Percentiles confirmation_latency;

  // Fork dynamics (§IV-A).
  std::uint64_t reorgs = 0;
  std::uint64_t orphaned_blocks = 0;
  std::uint32_t max_reorg_depth = 0;
  std::uint64_t blocks_produced = 0;

  // Ledger size (§V).
  std::uint64_t stored_bytes = 0;

  // Network cost.
  std::uint64_t messages = 0;
  std::uint64_t message_bytes = 0;

  // Open-loop admission control (ISSUE 10); all zero unless the traffic
  // engine ran. Invariant: admission_submitted == admission_admitted +
  // admission_rejected + admission_evicted + admission_backpressured.
  std::uint64_t admission_submitted = 0;
  std::uint64_t admission_admitted = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t admission_evicted = 0;
  std::uint64_t admission_backpressured = 0;
};

}  // namespace dlt::core
