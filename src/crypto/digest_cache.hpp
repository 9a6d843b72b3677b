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
#pragma once

#include "support/bytes.hpp"

namespace dlt::crypto {

class DigestCache {
 public:
  /// Returns the memoized digest, invoking `compute` on the first call.
  template <typename Fn>
  const Hash256& get(Fn&& compute) const {
    if (!valid_) {
      digest_ = compute();
      valid_ = true;
    }
    return digest_;
  }

  void invalidate() { valid_ = false; }

 private:
  mutable Hash256 digest_;
  mutable bool valid_ = false;
};

}  // namespace dlt::crypto
