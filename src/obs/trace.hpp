// Deterministic structured tracer (ISSUE 2 tentpole).
//
// Records typed simulation-time events into a fixed-capacity in-memory
// ring buffer with optional JSONL export. The determinism contract:
//
//  - Timestamps come from sim::Simulation::now() ONLY — never wall clock.
//    Wall-clock profiling (obs::ProfileTimer) feeds the MetricsRegistry
//    and is kept out of traces by construction.
//  - Events are recorded on the single simulation thread in event-firing
//    order.
//  - With the tracer disabled the record path is a single branch; no
//    RunMetrics value may change based on whether tracing is on.
//
// Together these make two identical-seed runs produce bit-for-bit
// identical JSONL files, which is what tools/bench_diff.py and the
// acceptance tests rely on.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/bytes.hpp"
#include "support/json.hpp"

namespace dlt::obs {

/// First 8 bytes of a digest/identifier as a trace payload — enough to
/// correlate events without hauling full hashes through the ring buffer.
template <std::size_t N>
std::uint64_t trace_id(const FixedBytes<N>& h) {
  static_assert(N >= 8, "trace ids need at least 8 bytes of digest");
  std::uint64_t out = 0;
  std::memcpy(&out, h.data(), sizeof(out));
  return out;
}

enum class EventType : std::uint8_t {
  kBlockMined = 0,    // a=height, b=txs
  kBlockReceived,     // a=height, b=id (hash prefix)
  kForkOpened,        // a=height, b=id — block parked on a side chain
  kReorgApplied,      // a=depth, b=new tip height
  kVoteCast,          // a=target, b=id
  kQuorumReached,     // a=target, b=id
  kSendIssued,        // a=amount, b=peer
  kReceiveSettled,    // a=amount, b=peer
  kTxIncluded,        // a=id (tx hash prefix), b=height
  kTxConfirmed,       // a=id, b=height
  kMessageSent,       // a=kind (net::MessageType), b=bytes
  kTipAttached,       // a=id, b=parents (tangle)
  kTxSubmitted,       // a=id, b=aux — workload payment entered the cluster
  kTxAdmitted,        // a=id, b=aux — accepted into mempool/ledger locally
  kTxEvicted,         // a=id, b=aux — displaced by the fee market (ISSUE 10)
  kEventCount_,       // sentinel — keep last
};

constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kEventCount_);

/// Fixed-size POD record; 32 bytes, trivially copyable.
struct TraceEvent {
  double time = 0.0;           // sim seconds
  std::uint32_t node = 0;      // originating node (net::NodeId or cluster idx)
  EventType type = EventType::kBlockMined;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Tracer {
 public:
  /// Starts recording into a ring of `capacity` events. Calling enable on
  /// a live tracer resets it.
  void enable(std::size_t capacity);
  void disable();
  bool enabled() const { return enabled_; }

  void record(double time, EventType type, std::uint32_t node,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    if (!enabled_) return;
    ++recorded_;
    ++per_type_[static_cast<std::size_t>(type)];
    const TraceEvent ev{time, node, type, a, b};
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      // Overwrite the oldest event; the ring keeps the most recent
      // `capacity_` events and the rest count as dropped.
      ring_[head_] = ev;
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }

  /// Total record() calls since enable(); >= events().size().
  std::uint64_t recorded() const { return recorded_; }
  /// Events overwritten because the ring was full.
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t count_of(EventType t) const {
    return per_type_[static_cast<std::size_t>(t)];
  }

  /// Retained events, oldest first (unwraps the ring).
  std::vector<TraceEvent> events() const;

  /// One JSON object per line, e.g.
  ///   {"t":12.5,"ev":"reorg_applied","node":3,"depth":2,"height":40}
  static std::string event_json(const TraceEvent& ev);
  std::string to_jsonl() const;
  /// Writes to_jsonl() to `path`; false (after logging) on failure.
  bool export_jsonl(const std::string& path) const;

  /// {"enabled":...,"recorded":...,"dropped":...,"retained":...,
  ///  "by_type":{...nonzero types, name order...},
  ///  "first_time":...,"last_time":...}
  support::JsonObject summary_json() const;

 private:
  bool enabled_ = false;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  // oldest element once the ring has wrapped
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t per_type_[kEventTypeCount] = {};
  std::vector<TraceEvent> ring_;
};

/// Reads the DLT_TRACE environment variable: unset/"0" → 0 (disabled),
/// "1" → default capacity (1<<20 events), otherwise the numeric value.
/// Benches use this to opt into JSONL export without recompiling.
std::size_t trace_capacity_from_env();

}  // namespace dlt::obs
