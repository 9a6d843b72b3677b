#include "chain/pos.hpp"

#include <cassert>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::chain {

void ValidatorSet::deposit(const crypto::AccountId& validator,
                           std::uint64_t pubkey, Amount stake) {
  Entry& e = validators_[validator];
  e.stake += stake;
  e.pubkey = pubkey;
  total_ += stake;
}

Status ValidatorSet::withdraw(const crypto::AccountId& validator) {
  auto it = validators_.find(validator);
  if (it == validators_.end()) return make_error("unknown-validator");
  total_ -= it->second.stake;
  validators_.erase(it);
  return Status::success();
}

Amount ValidatorSet::slash(const crypto::AccountId& validator) {
  auto it = validators_.find(validator);
  if (it == validators_.end()) return 0;
  const Amount burned = it->second.stake;
  total_ -= burned;
  slashed_ += burned;
  validators_.erase(it);
  return burned;
}

Amount ValidatorSet::stake_of(const crypto::AccountId& validator) const {
  auto it = validators_.find(validator);
  return it == validators_.end() ? 0 : it->second.stake;
}

std::optional<std::uint64_t> ValidatorSet::pubkey_of(
    const crypto::AccountId& validator) const {
  auto it = validators_.find(validator);
  if (it == validators_.end()) return std::nullopt;
  return it->second.pubkey;
}

Result<crypto::AccountId> ValidatorSet::proposer_for_slot(
    const Hash256& seed, std::uint64_t slot) const {
  if (total_ == 0) return make_error("no-stake", "empty validator set");
  Writer w;
  w.fixed(seed);
  w.u64(slot);
  const Hash256 h = crypto::tagged_hash(
      "dlt/pos-proposer", ByteView{w.bytes().data(), w.size()});
  const Amount ticket = crypto::hash_prefix_u64(h) % total_;

  Amount acc = 0;
  for (const auto& [validator, entry] : validators_) {
    acc += entry.stake;
    if (ticket < acc) return validator;
  }
  assert(false && "stake accounting out of sync");
  return validators_.rbegin()->first;
}

Hash256 CheckpointVote::sighash() const {
  Writer w;
  w.fixed(validator);
  w.u64(source_epoch);
  w.fixed(source_hash);
  w.u64(target_epoch);
  w.fixed(target_hash);
  return crypto::tagged_hash("dlt/ffg-vote",
                             ByteView{w.bytes().data(), w.size()});
}

void CheckpointVote::sign(const crypto::KeyPair& key, Rng& rng) {
  validator = key.account_id();
  pubkey = key.public_key();
  signature = key.sign(sighash().view(), rng);
}

FinalityGadget::FinalityGadget(const ChainParams& params,
                               ValidatorSet& validators, Hash256 genesis_hash)
    : params_(params), validators_(validators) {
  // Epoch 0 (genesis) is justified and final by definition.
  justified_[0].push_back(genesis_hash);
  last_justified_hash_ = genesis_hash;
  last_finalized_hash_ = genesis_hash;
}

std::optional<Error> FinalityGadget::check_slashable(
    const CheckpointVote& vote) const {
  auto it = vote_history_.find(vote.validator);
  if (it == vote_history_.end()) return std::nullopt;
  for (const CheckpointVote& prior : it->second) {
    // Double vote: distinct votes with the same target epoch.
    if (prior.target_epoch == vote.target_epoch &&
        prior.target_hash != vote.target_hash)
      return make_error("slash-double-vote");
    // Surround vote: one vote's span strictly contains the other's.
    const bool new_surrounds_old = vote.source_epoch < prior.source_epoch &&
                                   prior.target_epoch < vote.target_epoch;
    const bool old_surrounds_new = prior.source_epoch < vote.source_epoch &&
                                   vote.target_epoch < prior.target_epoch;
    if (new_surrounds_old || old_surrounds_new)
      return make_error("slash-surround-vote");
  }
  return std::nullopt;
}

Result<VoteOutcome> FinalityGadget::process_vote(const CheckpointVote& vote) {
  VoteOutcome outcome;

  auto pubkey = validators_.pubkey_of(vote.validator);
  if (!pubkey) return make_error("unknown-validator");
  if (*pubkey != vote.pubkey || crypto::account_of(vote.pubkey) != vote.validator)
    return make_error("pubkey-mismatch");
  if (!crypto::verify(vote.pubkey, vote.sighash().view(), vote.signature))
    return make_error("bad-signature");
  if (vote.target_epoch <= vote.source_epoch)
    return make_error("bad-link", "target epoch must exceed source");
  if (!is_justified(vote.source_epoch, vote.source_hash))
    return make_error("unjustified-source");

  if (auto offence = check_slashable(vote)) {
    const Amount stake = validators_.stake_of(vote.validator);
    validators_.slash(vote.validator);
    // Burned stake stops counting toward any pending link.
    for (auto& [key, voters] : link_voters_) {
      for (auto it = voters.begin(); it != voters.end(); ++it) {
        if (*it == vote.validator) {
          link_stake_[key] -= stake;
          voters.erase(it);
          break;
        }
      }
    }
    ++slashings_;
    outcome.slashed = vote.validator;
    return outcome;  // offending vote is discarded, stake burned
  }

  vote_history_[vote.validator].push_back(vote);
  ++votes_processed_;
  outcome.counted = true;

  const LinkKey key{vote.source_epoch, vote.target_epoch, vote.source_hash,
                    vote.target_hash};
  auto& voters = link_voters_[key];
  for (const auto& v : voters)
    if (v == vote.validator) return outcome;  // duplicate identical vote
  voters.push_back(vote.validator);
  link_stake_[key] += validators_.stake_of(vote.validator);

  const double quorum =
      params_.checkpoint_quorum * static_cast<double>(validators_.total_stake());
  if (static_cast<double>(link_stake_[key]) >= quorum &&
      !is_justified(vote.target_epoch, vote.target_hash)) {
    justified_[vote.target_epoch].push_back(vote.target_hash);
    outcome.justified_target = true;
    if (vote.target_epoch > last_justified_epoch_) {
      last_justified_epoch_ = vote.target_epoch;
      last_justified_hash_ = vote.target_hash;
    }
    // Finality: a supermajority link between *consecutive* epochs
    // finalizes the source checkpoint.
    if (vote.target_epoch == vote.source_epoch + 1 &&
        vote.source_epoch >= last_finalized_epoch_) {
      last_finalized_epoch_ = vote.source_epoch;
      last_finalized_hash_ = vote.source_hash;
      outcome.finalized_source = true;
    }
  }
  return outcome;
}

bool FinalityGadget::is_justified(std::uint64_t epoch,
                                  const Hash256& hash) const {
  auto it = justified_.find(epoch);
  if (it == justified_.end()) return false;
  for (const Hash256& h : it->second)
    if (h == hash) return true;
  return false;
}

}  // namespace dlt::chain
