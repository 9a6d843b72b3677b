#include "core/traffic.hpp"

#include <algorithm>
#include <cmath>

namespace dlt::core {

const char* to_string(ArrivalProcess process) {
  switch (process) {
    case ArrivalProcess::kPoisson:
      return "poisson";
    case ArrivalProcess::kBursty:
      return "bursty";
    case ArrivalProcess::kDiurnal:
      return "diurnal";
  }
  return "unknown";
}

std::uint64_t fee_class_multiplier(std::uint32_t fee_class) {
  const std::uint32_t k = std::min<std::uint32_t>(fee_class, 31);
  return 1ULL << (2 * k);
}

TrafficSource::TrafficSource(const TrafficConfig& config,
                             std::size_t account_count)
    : cfg_(config),
      accounts_(account_count == 0 ? 1 : account_count),
      rng_(config.seed) {
  switch (cfg_.process) {
    case ArrivalProcess::kPoisson:
      peak_rate_ = cfg_.rate;
      break;
    case ArrivalProcess::kBursty:
      peak_rate_ = cfg_.rate * std::max(cfg_.burst_multiplier,
                                        cfg_.off_multiplier);
      // The OFF→ON→OFF trajectory is drawn lazily by rate_at; start OFF
      // with the first switch drawn on demand.
      next_switch_ = -1.0;
      break;
    case ArrivalProcess::kDiurnal:
      peak_rate_ = cfg_.rate * (1.0 + std::max(0.0, cfg_.diurnal_amplitude));
      break;
  }
}

double TrafficSource::rate_at(double t) {
  switch (cfg_.process) {
    case ArrivalProcess::kPoisson:
      return cfg_.rate;
    case ArrivalProcess::kBursty: {
      // Advance the ON/OFF trajectory to t. Candidates arrive in
      // non-decreasing t, so this walk is monotone and each dwell is
      // drawn exactly once regardless of the thinning pattern.
      if (next_switch_ < 0.0)
        next_switch_ = rng_.exponential(cfg_.burst_off_mean);
      while (t >= next_switch_) {
        burst_on_ = !burst_on_;
        next_switch_ += rng_.exponential(burst_on_ ? cfg_.burst_on_mean
                                                   : cfg_.burst_off_mean);
      }
      return cfg_.rate *
             (burst_on_ ? cfg_.burst_multiplier : cfg_.off_multiplier);
    }
    case ArrivalProcess::kDiurnal: {
      const double phase = 2.0 * 3.14159265358979323846 * t /
                           std::max(cfg_.diurnal_period, 1e-9);
      const double r =
          cfg_.rate * (1.0 + cfg_.diurnal_amplitude * std::sin(phase));
      return std::max(r, 0.0);
    }
  }
  return cfg_.rate;
}

bool TrafficSource::next(TrafficEvent& event) {
  if (peak_rate_ <= 0.0 || cfg_.duration <= 0.0) return false;
  // Lewis–Shedler thinning against the peak-rate envelope.
  for (;;) {
    t_ += rng_.exponential(1.0 / peak_rate_);
    if (t_ >= cfg_.duration) return false;
    if (cfg_.process == ArrivalProcess::kPoisson) break;  // envelope == rate
    const double accept = rate_at(t_) / peak_rate_;
    if (rng_.uniform01() < accept) break;
  }

  event.time = t_;
  // Per-arrival draw schedule — fixed order, documented in DESIGN.md;
  // reordering changes every downstream arrival for a given seed.
  event.from = cfg_.zipf_s > 0.0
                   ? rng_.zipf(accounts_, cfg_.zipf_s)
                   : static_cast<std::size_t>(rng_.uniform(
                         static_cast<std::uint64_t>(accounts_)));
  const std::size_t hot =
      std::min(std::max<std::size_t>(cfg_.hot_receiver_count, 1), accounts_);
  do {
    const bool use_hot = cfg_.hot_receiver_fraction > 0.0 &&
                         rng_.uniform01() < cfg_.hot_receiver_fraction;
    const std::size_t span = use_hot ? hot : accounts_;
    event.to = static_cast<std::size_t>(
        rng_.uniform(static_cast<std::uint64_t>(span)));
  } while (event.to == event.from && accounts_ > 1);
  event.amount = rng_.uniform_range(cfg_.min_amount,
                                    std::max(cfg_.min_amount, cfg_.max_amount));
  const std::uint64_t classes =
      cfg_.fee_class_count == 0 ? 1 : cfg_.fee_class_count;
  event.fee_class = static_cast<std::uint32_t>(rng_.uniform(classes));
  return true;
}

AdmissionQueue::Push AdmissionQueue::push(const QueuedPayment& p,
                                          std::vector<QueuedPayment>* evicted) {
  const std::uint64_t bytes = p.bytes == 0 ? 1 : p.bytes;
  if (capacity_ > 0 && bytes > capacity_) return Push::kBackpressured;
  const double rate =
      static_cast<double>(p.fee) / static_cast<double>(bytes);
  if (capacity_ > 0 && used_ + bytes > capacity_) {
    // Plan before evicting: victims are the lowest fee rate, newest among
    // ties (reverse of the drain order), and only strictly-lower payers
    // qualify — equal rates never displace, so admission is independent
    // of arrival interleaving. If the plan cannot free enough bytes the
    // push backpressures WITHOUT disturbing the queue.
    std::uint64_t freed = 0;
    auto cut = by_rate_.end();
    while (used_ - freed + bytes > capacity_) {
      if (cut == by_rate_.begin()) return Push::kBackpressured;
      auto victim = std::prev(cut);
      if (victim->first.rate >= rate) return Push::kBackpressured;
      freed += victim->second.bytes;
      cut = victim;
    }
    // Commit, surfacing victims newest-lowest first (the plan order).
    for (auto it = by_rate_.end(); it != cut;) {
      --it;
      used_ -= it->second.bytes;
      if (evicted) evicted->push_back(it->second);
    }
    by_rate_.erase(cut, by_rate_.end());
  }
  QueuedPayment stored = p;
  stored.bytes = bytes;
  by_rate_.emplace(Key{rate, next_seq_++}, stored);
  used_ += bytes;
  return Push::kAdmitted;
}

bool AdmissionQueue::pop(QueuedPayment& out) {
  if (by_rate_.empty()) return false;
  auto it = by_rate_.begin();
  out = it->second;
  used_ -= it->second.bytes;
  by_rate_.erase(it);
  return true;
}

}  // namespace dlt::core
