// Statistics accumulators used by the metrics layer and the benches.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace dlt {

/// Streaming summary: count / mean / min / max / stddev (Welford).
class Summary {
 public:
  void add(double x);
  void merge(const Summary& other);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains samples for exact percentiles. Below the (optional) sample cap
/// every observation is kept and quantiles are exact; above it, a
/// deterministic reservoir (Algorithm R driven by a fixed-seed splitmix64
/// stream) keeps a uniform subset so memory stays O(cap) for million-tx
/// runs. Identical add/quantile call sequences produce byte-identical
/// results — the reservoir never consults wall clock or global RNG state.
class Percentiles {
 public:
  void add(double x);
  /// Total observations seen (not the retained sample count).
  std::uint64_t count() const { return seen_; }
  /// Samples currently retained; == count() while under the cap.
  std::size_t sample_count() const { return xs_.size(); }

  /// Caps retained samples; 0 (default) keeps everything. Set before
  /// observing: an existing oversized sample set is truncated, which is
  /// deterministic but no longer uniform.
  void set_sample_cap(std::size_t cap);
  std::size_t sample_cap() const { return cap_; }

  /// q in [0, 1]; linear interpolation between order statistics.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }

 private:
  std::uint64_t next_rand();

  mutable std::vector<double> xs_;
  mutable bool sorted_ = false;
  std::uint64_t seen_ = 0;
  std::size_t cap_ = 0;
  std::uint64_t rng_state_ = 0x6c617465'6e637931ull;  // fixed seed
};

/// Human formatting helpers for bench tables.
std::string format_bytes(std::uint64_t bytes);
std::string format_si(double v);  // 3.2k, 1.5M, ...

}  // namespace dlt
