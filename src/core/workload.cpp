#include "core/workload.hpp"

namespace dlt::core {

std::vector<PaymentEvent> generate_payments(const WorkloadConfig& config,
                                            Rng& rng) {
  std::vector<PaymentEvent> events;
  const double mean_gap = 1.0 / config.tx_rate;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(mean_gap);
    if (t >= config.duration) break;
    PaymentEvent ev;
    ev.time = t;
    auto pick = [&]() -> std::size_t {
      if (config.pick == AccountPick::kZipf)
        return rng.zipf(config.account_count, config.zipf_s);
      return rng.uniform(config.account_count);
    };
    ev.from = pick();
    do {
      ev.to = pick();
    } while (ev.to == ev.from && config.account_count > 1);
    ev.amount = rng.uniform_range(config.min_amount, config.max_amount);
    events.push_back(ev);
  }
  return events;
}

}  // namespace dlt::core
