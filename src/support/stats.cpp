#include "support/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dlt {

void Summary::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::merge(const Summary& o) {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_), m = static_cast<double>(o.n_);
  m2_ += o.m2_ + delta * delta * n * m / (n + m);
  mean_ += delta * m / (n + m);
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double Summary::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Percentiles::add(double x) {
  ++seen_;
  if (cap_ == 0 || xs_.size() < cap_) {
    xs_.push_back(x);
    sorted_ = false;
    return;
  }
  // Algorithm R: the new observation replaces a uniformly random retained
  // sample with probability cap/seen. Replacing by index stays uniform even
  // after quantile() sorted the vector in place — any index is still a
  // uniformly random retained element.
  const std::uint64_t j = next_rand() % seen_;
  if (j < cap_) {
    xs_[static_cast<std::size_t>(j)] = x;
    sorted_ = false;
  }
}

void Percentiles::set_sample_cap(std::size_t cap) {
  cap_ = cap;
  if (cap_ > 0 && xs_.size() > cap_) {
    xs_.resize(cap_);
    xs_.shrink_to_fit();
    sorted_ = false;
  }
}

std::uint64_t Percentiles::next_rand() {
  // splitmix64: tiny, deterministic, private state; never touches the
  // simulation's RNG streams.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Percentiles::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(xs_.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= xs_.size()) return xs_.back();
  return xs_[i] * (1.0 - frac) + xs_[i + 1] * frac;
}

std::string format_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  if (u == 0)
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  else
    std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return buf;
}

std::string format_si(double v) {
  const char* units[] = {"", "k", "M", "G", "T"};
  int u = 0;
  double a = std::fabs(v);
  while (a >= 1000.0 && u < 4) {
    a /= 1000.0;
    v /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g%s", v, units[u]);
  return buf;
}

}  // namespace dlt
