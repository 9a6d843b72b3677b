// Representative voting (paper §III-B, §IV-B).
//
// "Representatives vote in order to resolve conflicts. Their votes are
// weighted: a representative's weight is calculated as the sum of all
// balances for accounts that chose this representative. In the case of a
// conflict, the winning transaction is the one that gained the most votes
// with regards to the voter's weight."
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>

#include "crypto/digest_cache.hpp"
#include "crypto/keys.hpp"
#include "lattice/block.hpp"
#include "support/result.hpp"

namespace dlt::lattice {

struct Vote {
  crypto::AccountId representative;
  Root root;            // the contested chain position
  BlockHash block;      // candidate this vote endorses
  std::uint64_t sequence = 0;  // later votes supersede earlier ones
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  /// Memoized: a gossiped vote is one shared object, so every replica
  /// after the first reads the digest back. Writing a signed field after
  /// a call requires an explicit invalidate_digests(); sign() does it.
  Hash256 sighash() const;

  /// Drops the memoized sighash.
  void invalidate_digests() { sighash_memo_.invalidate(); }
  void sign(const crypto::KeyPair& key, Rng& rng);
  /// A shared crypto::SignatureCache skips repeat verifications (votes are
  /// gossiped to every node, so all but the first check hit).
  bool verify(crypto::SignatureCache* sigcache = nullptr) const;

  static constexpr std::size_t kSerializedSize = 32 + 64 + 32 + 8 + 24;

 private:
  crypto::DigestCache sighash_memo_;
};

/// Per-root tally. Tracks each representative's latest vote only, so a
/// representative switching sides moves its whole weight.
class Election {
 public:
  Election(Root root, double started_at)
      : root_(root), started_at_(started_at) {}

  const Root& root() const { return root_; }
  double started_at() const { return started_at_; }

  /// Records/updates a representative's weighted vote.
  void add_vote(const crypto::AccountId& representative, Amount weight,
                const BlockHash& candidate, std::uint64_t sequence);

  /// Candidate with the greatest weight (ties: lower hash, deterministic).
  std::optional<std::pair<BlockHash, Amount>> leader() const;

  Amount weight_for(const BlockHash& candidate) const;
  Amount total_voted_weight() const;
  std::size_t candidate_count() const;
  std::size_t voter_count() const { return votes_.size(); }

 private:
  struct RepVote {
    BlockHash candidate;
    Amount weight = 0;
    std::uint64_t sequence = 0;
  };

  Root root_;
  double started_at_;
  std::unordered_map<crypto::AccountId, RepVote> votes_;
};

}  // namespace dlt::lattice
