// Payment workload generation shared by benches and examples.
//
// Transactions arrive as a Poisson process at a target rate; sender and
// receiver accounts are drawn uniformly or zipf-skewed (real payment
// traffic concentrates on popular merchants).
#pragma once

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace dlt::core {

enum class AccountPick { kUniform, kZipf };

struct WorkloadConfig {
  std::size_t account_count = 100;
  double tx_rate = 1.0;          // transactions per simulated second
  double duration = 600.0;       // seconds of traffic
  AccountPick pick = AccountPick::kZipf;
  double zipf_s = 1.0;
  std::uint64_t min_amount = 1;
  std::uint64_t max_amount = 1000;
};

struct PaymentEvent {
  double time = 0.0;
  std::size_t from = 0;   // account indices
  std::size_t to = 0;
  std::uint64_t amount = 0;
};

/// Materializes the full arrival schedule (deterministic given the rng).
std::vector<PaymentEvent> generate_payments(const WorkloadConfig& config,
                                            Rng& rng);

}  // namespace dlt::core
