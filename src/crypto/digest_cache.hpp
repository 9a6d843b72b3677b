// Lazily-computed memoized digest slot.
//
// Transactions, block headers, and lattice blocks are hashed over and over:
// as map keys, merkle leaves, signature payloads, and once per simulated node
// during validation. Since gossip delivers one shared immutable object to all
// N nodes (src/net), memoizing the digest on the object collapses those N
// serialize+hash passes into one.
//
// Contract:
//  - Owners expose invalidate_digests() and call it from every mutator
//    (sign, solve, builders). Code that writes the owner's public fields
//    directly MUST call invalidate_digests() afterwards; a stale digest is
//    a correctness bug, not just a perf bug.
//  - Copies keep the memo: the copied content is byte-identical, so the
//    cached digest still matches.
//  - Not thread-safe: the memo slot is written on first use, so hash an
//    object from one thread only (the simulation thread).
#pragma once

#include <atomic>

#include "support/bytes.hpp"

namespace dlt::crypto {

class DigestCache {
 public:
  /// Returns the memoized digest, invoking `compute` on the first call (or
  /// on every call while the global switch is off).
  template <typename Fn>
  const Hash256& get(Fn&& compute) const {
    if (!valid_ || !enabled()) {
      digest_ = compute();
      valid_ = enabled();
    }
    return digest_;
  }

  void invalidate() { valid_ = false; }
  bool cached() const { return valid_; }

  /// Global kill switch so benches can A/B the memoization honestly
  /// (bench_hotpath runs the same workload with caching on and off).
  /// Defaults to on; not meant to be toggled mid-simulation.
  static void set_enabled(bool on) {
    enabled_flag().store(on, std::memory_order_relaxed);
  }
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

 private:
  static std::atomic<bool>& enabled_flag() {
    static std::atomic<bool> on{true};
    return on;
  }

  mutable Hash256 digest_;
  mutable bool valid_ = false;
};

}  // namespace dlt::crypto
