// Proof of Stake: validator registry, stake-weighted proposer election and
// a Casper-style finality gadget (paper §III-A2, §IV-A).
//
// "Validators deposit their stake in the smart contract, which in turn
// picks the validator allowed to create a block. The more tokens a
// validator stakes, it has a higher chance to create the next block. If an
// incorrect block is submitted, the validator's stake is burned."
//
// Finality follows Casper FFG (paper §IV-A: "a proof of stake based
// finality system that is supposed to introduce non-reversible
// checkpoints"): validators vote on (source -> target) checkpoint links;
// a supermajority link justifies the target, and a justified checkpoint
// whose direct-child checkpoint is justified becomes final.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/params.hpp"
#include "crypto/keys.hpp"
#include "support/result.hpp"

namespace dlt::chain {

class ValidatorSet {
 public:
  /// Deposits stake for a validator (creates or tops up).
  void deposit(const crypto::AccountId& validator, std::uint64_t pubkey,
               Amount stake);

  /// Withdraws the full stake (validator exits).
  Status withdraw(const crypto::AccountId& validator);

  /// Burns the validator's entire stake (paper: "burning stake has the
  /// same economic effect as dismantling an attacker's mining equipment").
  /// Returns the amount burned.
  Amount slash(const crypto::AccountId& validator);

  Amount stake_of(const crypto::AccountId& validator) const;
  Amount total_stake() const { return total_; }
  Amount total_slashed() const { return slashed_; }
  std::size_t size() const { return validators_.size(); }
  std::optional<std::uint64_t> pubkey_of(
      const crypto::AccountId& validator) const;

  /// Deterministic stake-weighted proposer for a slot: every honest node
  /// computes the same winner from (seed, slot). Probability of selection
  /// is proportional to stake.
  Result<crypto::AccountId> proposer_for_slot(const Hash256& seed,
                                              std::uint64_t slot) const;

 private:
  struct Entry {
    Amount stake = 0;
    std::uint64_t pubkey = 0;
  };
  // Ordered map => deterministic iteration for proposer sampling.
  std::map<crypto::AccountId, Entry> validators_;
  Amount total_ = 0;
  Amount slashed_ = 0;
};

/// A Casper FFG checkpoint vote: "I attest the chain from justified
/// checkpoint `source` to checkpoint `target`".
struct CheckpointVote {
  crypto::AccountId validator;
  std::uint64_t source_epoch = 0;
  Hash256 source_hash;
  std::uint64_t target_epoch = 0;
  Hash256 target_hash;
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  Hash256 sighash() const;
  void sign(const crypto::KeyPair& key, Rng& rng);
  static constexpr std::size_t kSerializedSize = 32 + 8 + 32 + 8 + 32 + 24;
};

/// Outcome of feeding a vote to the gadget.
struct VoteOutcome {
  bool counted = false;
  bool justified_target = false;   // vote completed a supermajority link
  bool finalized_source = false;   // justification finalized the source
  std::optional<crypto::AccountId> slashed;  // offender, if any
};

class FinalityGadget {
 public:
  FinalityGadget(const ChainParams& params, ValidatorSet& validators,
                 Hash256 genesis_hash);

  /// Processes a vote: verifies the signature, applies Casper slashing
  /// conditions (double vote, surround vote), and accumulates stake toward
  /// the (source -> target) link.
  Result<VoteOutcome> process_vote(const CheckpointVote& vote);

  bool is_justified(std::uint64_t epoch, const Hash256& hash) const;
  std::uint64_t last_justified_epoch() const { return last_justified_epoch_; }
  std::uint64_t last_finalized_epoch() const { return last_finalized_epoch_; }
  Hash256 last_justified_hash() const { return last_justified_hash_; }
  Hash256 last_finalized_hash() const { return last_finalized_hash_; }

  std::uint64_t votes_processed() const { return votes_processed_; }
  std::uint64_t slashings() const { return slashings_; }

 private:
  struct LinkKey {
    std::uint64_t source_epoch, target_epoch;
    Hash256 source_hash, target_hash;
    bool operator<(const LinkKey& o) const {
      return std::tie(source_epoch, target_epoch, source_hash, target_hash) <
             std::tie(o.source_epoch, o.target_epoch, o.source_hash,
                      o.target_hash);
    }
  };

  /// Casper commandments: no two votes with the same target epoch; no vote
  /// surrounding an earlier one (s1 < s2 < t2 < t1 in either direction).
  std::optional<Error> check_slashable(const CheckpointVote& vote) const;

  const ChainParams& params_;
  ValidatorSet& validators_;

  std::map<LinkKey, Amount> link_stake_;
  std::map<LinkKey, std::vector<crypto::AccountId>> link_voters_;
  // validator -> votes cast (for slashing detection)
  std::unordered_map<crypto::AccountId, std::vector<CheckpointVote>>
      vote_history_;
  // epoch -> justified checkpoint hashes
  std::map<std::uint64_t, std::vector<Hash256>> justified_;

  std::uint64_t last_justified_epoch_ = 0;
  Hash256 last_justified_hash_;
  std::uint64_t last_finalized_epoch_ = 0;
  Hash256 last_finalized_hash_;
  std::uint64_t votes_processed_ = 0;
  std::uint64_t slashings_ = 0;
};

}  // namespace dlt::chain
