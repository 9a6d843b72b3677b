// MetricsRegistry: named counters / gauges / histograms that nodes and
// cluster drivers register into (ISSUE 2 tentpole).
//
// Design constraints:
//  - Hot paths hold a `Counter*` / `Histogram*` obtained once at wiring
//    time, so the per-event cost is a null check plus an increment; the
//    registry map is only walked at registration and export time.
//  - Backing storage is std::map so references stay stable across later
//    registrations and JSON export iterates in name order — export output
//    is deterministic regardless of registration order.
//  - Histograms reuse support::Summary (Welford) + support::Percentiles
//    (exact quantiles) rather than inventing a third accumulator.
//  - Wall-clock ProfileTimer observations also land here, under a
//    "profile." prefix.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "support/json.hpp"
#include "support/stats.hpp"

namespace dlt::obs {

/// Monotonic event count (blocks mined, messages sent, ...).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (mempool size, tip height, ...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution of observations: streaming moments + exact percentiles.
class Histogram {
 public:
  void observe(double x) {
    summary_.add(x);
    percentiles_.add(x);
  }
  std::uint64_t count() const { return summary_.count(); }
  const Summary& summary() const { return summary_; }
  const Percentiles& percentiles() const { return percentiles_; }

  /// Bounds percentile memory via deterministic reservoir sampling (see
  /// support::Percentiles::set_sample_cap); 0 = exact, unbounded.
  void set_sample_cap(std::size_t cap) { percentiles_.set_sample_cap(cap); }

 private:
  Summary summary_;
  Percentiles percentiles_;
};

class MetricsRegistry {
 public:
  /// Returns the metric with `name`, creating it on first use. References
  /// stay valid for the registry's lifetime (map nodes are stable).
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  /// Lookup without creating; nullptr when absent.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with members in
  /// name order. Histograms export count/mean/min/max/stddev plus
  /// median/p95/p99/p999.
  support::JsonObject to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace dlt::obs
