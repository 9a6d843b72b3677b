// Probe: the handle nodes and the network hold into the observability
// layer. A default-constructed Probe is inert — every helper is a null
// check — so un-instrumented configs (unit tests, examples) pay a branch
// per event and nothing else.
//
// Ownership: the cluster driver (or bench harness) owns the
// MetricsRegistry and Tracer; probes are non-owning views wired in at
// construction. Hot paths should resolve registry metrics once
// (`probe.metrics->counter("...")`) and keep the pointer.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlt::obs {

struct Probe {
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  explicit operator bool() const { return metrics || tracer; }

  /// Records a trace event iff a tracer is attached and enabled.
  void trace(double time, EventType type, std::uint32_t node,
             std::uint64_t a = 0, std::uint64_t b = 0) const {
    if (tracer && tracer->enabled()) tracer->record(time, type, node, a, b);
  }

  /// Registry accessors that tolerate a detached probe.
  Counter* counter(const std::string& name) const {
    return metrics ? &metrics->counter(name) : nullptr;
  }
  Gauge* gauge(const std::string& name) const {
    return metrics ? &metrics->gauge(name) : nullptr;
  }
  Histogram* histogram(const std::string& name) const {
    return metrics ? &metrics->histogram(name) : nullptr;
  }
};

/// Null-tolerant mutation helpers for cached metric pointers.
inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c) c->inc(n);
}
inline void set(Gauge* g, double v) {
  if (g) g->set(v);
}
inline void observe(Histogram* h, double x) {
  if (h) h->observe(x);
}

}  // namespace dlt::obs
