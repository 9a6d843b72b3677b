#include "core/json_report.hpp"

#include <sstream>

namespace dlt::core {

std::string latency_summary_line(const obs::MetricsRegistry& registry) {
  const obs::Histogram* h =
      registry.find_histogram("latency.submit_to_confirm");
  if (!h || h->count() == 0) return {};
  const Percentiles& p = h->percentiles();
  std::ostringstream os;
  os << "Lifecycle submit->confirm: p50 " << json_number(p.median())
     << "s, p99 " << json_number(p.p99()) << "s over " << h->count()
     << " confirmed txs";
  return os.str();
}

}  // namespace dlt::core
