// Open-loop heavy-traffic workload engine + admission control (ISSUE 10).
//
// The closed-loop workloads (core/workload.hpp) pre-draw a payment list
// whose offered load tracks achieved TPS by construction. TrafficSource
// instead generates arrivals on sim-time events *independent of ledger
// progress* — the open-loop shape production ledgers face — from three
// arrival processes:
//
//   poisson — homogeneous rate r
//   bursty  — 2-state MMPP: exponential ON/OFF dwells; the rate is
//             r·burst_multiplier while ON and r·off_multiplier while OFF
//   diurnal — sinusoidal modulation r·(1 + A·sin(2πt/period))
//
// all realized by Lewis–Shedler thinning against the process's peak rate,
// so every process draws from ONE dedicated Rng stream (config.traffic.seed,
// split from nothing else — see DESIGN.md "Admission determinism contract").
// Senders are Zipf-distributed (zipf_s, 0 = uniform) and receivers skew
// onto a small hot set (hot_receiver_fraction/hot_receiver_count) to shape
// contention on a few hot accounts.
//
// Each arrival carries a fee class k ∈ [0, fee_class_count): the fee paid
// is base_fee · fee_class_multiplier(k) (geometric ladder 1, 4, 16, ...),
// and obs::LatencyTracker buckets confirmation latency per class into
// latency.class.<k>.submit_to_confirm.
//
// Admission control:
//   chain   — chain::UtxoMempool / chain::AccountMempool grow a
//             byte-capacity fee market (lowest-fee-rate eviction,
//             opt-in replacement; see chain/mempool.hpp).
//   lattice — per-owner-node AdmissionQueue (below) drained on a fixed
//   tangle    service cadence (drain_interval / drain_burst).
//
// Outcomes tally into AdmissionStats, which must reconcile exactly:
//   submitted == admitted + rejected + evicted + backpressured
// (admitted counts transactions still standing: an eviction or a
// drain-time validation failure moves a tx out of admitted).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "support/rng.hpp"

namespace dlt::core {

enum class ArrivalProcess : std::uint8_t {
  kPoisson = 0,
  kBursty,
  kDiurnal,
};

const char* to_string(ArrivalProcess process);

struct TrafficConfig {
  /// Master switch: off keeps every cluster byte-identical to the
  /// pre-traffic engine (no extra RNG draws, no mempool caps).
  bool enabled = false;

  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Base arrival rate r in tx/s (bursty/diurnal modulate around it).
  double rate = 10.0;
  /// Arrival-window length in sim seconds; generation stops after it.
  double duration = 100.0;

  // Bursty (MMPP-2) shape: rate multiplier while a burst is ON, the
  // trickle multiplier while OFF, and the exponential dwell means.
  double burst_multiplier = 8.0;
  double off_multiplier = 0.25;
  double burst_on_mean = 2.0;
  double burst_off_mean = 10.0;

  // Diurnal shape: r(t) = rate · (1 + amplitude · sin(2πt/period)).
  double diurnal_period = 60.0;
  double diurnal_amplitude = 0.8;

  /// Sender skew: Zipf exponent over the workload accounts (0 = uniform).
  double zipf_s = 1.0;
  /// Receiver (write-key) skew: with this probability the receiver is
  /// drawn uniformly from the first hot_receiver_count accounts.
  double hot_receiver_fraction = 0.2;
  std::size_t hot_receiver_count = 4;

  /// Number of fee classes; class k pays base_fee·fee_class_multiplier(k).
  std::size_t fee_class_count = 3;
  std::uint64_t base_fee = 1000;

  std::uint64_t min_amount = 1;
  std::uint64_t max_amount = 100;

  // Admission-control shape.
  /// Byte capacity of each admission pipeline: the chain mempool cap and
  /// the per-node lattice/tangle AdmissionQueue cap. 0 = unlimited.
  std::uint64_t queue_capacity_bytes = 64 * 1024;
  /// Nominal accounting size of one queued lattice/tangle payment (the
  /// chain uses real serialized sizes).
  std::uint64_t payment_bytes = 168;
  /// Lattice/tangle queue service cadence: every drain_interval seconds a
  /// non-empty queue issues up to drain_burst payments into the ledger.
  double drain_interval = 0.2;
  std::size_t drain_burst = 4;

  /// Dedicated arrival RNG stream seed — deliberately NOT forked from the
  /// cluster seed chain, so enabling traffic never shifts node/network
  /// draws (DESIGN.md "Admission determinism contract").
  std::uint64_t seed = 0x7ea7f1cULL;
};

/// Fee multiplier of class k: geometric ladder 1, 4, 16, ... (k clamps
/// at 31 to keep the shift defined).
std::uint64_t fee_class_multiplier(std::uint32_t fee_class);

/// One generated arrival, in seconds relative to the traffic start.
struct TrafficEvent {
  double time = 0.0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t amount = 1;
  std::uint32_t fee_class = 0;
};

/// Pull-based arrival generator. next() advances the single arrival Rng
/// by a fixed per-arrival draw schedule (thinning gap [+ accept draw for
/// modulated processes], sender, receiver, amount, fee class) so the
/// event stream is a pure function of (config, account_count).
class TrafficSource {
 public:
  TrafficSource(const TrafficConfig& config, std::size_t account_count);

  /// Produces the next arrival; false once `duration` is exhausted.
  bool next(TrafficEvent& event);

  /// The thinning envelope rate (peak of the modulated process).
  double peak_rate() const { return peak_rate_; }

 private:
  double rate_at(double t);  // advances the bursty state machine to t

  TrafficConfig cfg_;
  std::size_t accounts_;
  Rng rng_;
  double t_ = 0.0;
  double peak_rate_ = 0.0;
  // Bursty state machine (lazily advanced by rate_at).
  bool burst_on_ = false;
  double next_switch_ = 0.0;
};

/// Admission outcome tallies. The reconciliation identity is the
/// correctness contract every test/gate asserts.
struct AdmissionStats {
  std::uint64_t submitted = 0;      // arrivals fired into the cluster
  std::uint64_t admitted = 0;       // standing in a mempool/queue or beyond
  std::uint64_t rejected = 0;       // refused by validation (bad nonce, ...)
  std::uint64_t evicted = 0;        // admitted, then displaced by fee market
  std::uint64_t backpressured = 0;  // refused at capacity (fee too low)

  bool reconciles() const {
    return submitted == admitted + rejected + evicted + backpressured;
  }
};

/// A payment parked in a lattice/tangle admission queue.
struct QueuedPayment {
  double submit_time = 0.0;
  std::size_t from = 0;
  std::size_t to = 0;
  std::uint64_t amount = 1;
  std::uint32_t fee_class = 0;
  std::uint64_t fee = 0;
  std::uint64_t bytes = 0;
};

/// Byte-capacity fee-market queue for the ledgers without a real mempool
/// (lattice accounts, tangle issuers). One ordered index serves both
/// ends: drain pops the highest fee rate (FIFO among ties), eviction
/// removes the lowest fee rate (newest among ties) — the same canonical
/// tiebreaks as chain::UtxoMempool, so admission behaviour is
/// paradigm-uniform and independent of any container iteration order.
class AdmissionQueue {
 public:
  AdmissionQueue() = default;
  explicit AdmissionQueue(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  enum class Push : std::uint8_t { kAdmitted, kBackpressured };

  /// Admits `p`, evicting strictly-lower-fee-rate victims into `evicted`
  /// (newest-lowest first) as needed; backpressures when `p` cannot fit
  /// without displacing an equal-or-better payer.
  Push push(const QueuedPayment& p, std::vector<QueuedPayment>* evicted);

  /// Pops the best payment (highest fee rate, FIFO ties); false if empty.
  bool pop(QueuedPayment& out);

  bool empty() const { return by_rate_.empty(); }
  std::size_t size() const { return by_rate_.size(); }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  struct Key {
    double rate;        // fee per byte
    std::uint64_t seq;  // admission order, unique
  };
  struct Order {
    bool operator()(const Key& a, const Key& b) const {
      if (a.rate != b.rate) return a.rate > b.rate;  // best payer first
      return a.seq < b.seq;                          // FIFO among ties
    }
  };

  std::map<Key, QueuedPayment, Order> by_rate_;
  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace dlt::core
