#include "lattice/voting.hpp"

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::lattice {

Hash256 Vote::sighash() const {
  return sighash_memo_.get([this] {
    Writer w;
    w.fixed(representative);
    w.fixed(root.account);
    w.fixed(root.previous);
    w.fixed(block);
    w.u64(sequence);
    return crypto::tagged_hash("dlt/lattice-vote",
                               ByteView{w.bytes().data(), w.size()});
  });
}

void Vote::sign(const crypto::KeyPair& key, Rng& rng) {
  invalidate_digests();
  representative = key.account_id();
  pubkey = key.public_key();
  signature = key.sign(sighash().view(), rng);
}

bool Vote::verify(crypto::SignatureCache* sigcache) const {
  if (crypto::account_of(pubkey) != representative) return false;
  return crypto::verify_cached(sigcache, pubkey, sighash(), signature);
}

void Election::add_vote(const crypto::AccountId& representative,
                        Amount weight, const BlockHash& candidate,
                        std::uint64_t sequence) {
  auto it = votes_.find(representative);
  if (it != votes_.end() && it->second.sequence >= sequence) return;
  votes_[representative] = RepVote{candidate, weight, sequence};
}

std::optional<std::pair<BlockHash, Amount>> Election::leader() const {
  std::map<BlockHash, Amount> tally;
  for (const auto& [rep, vote] : votes_) tally[vote.candidate] += vote.weight;
  std::optional<std::pair<BlockHash, Amount>> best;
  for (const auto& [candidate, weight] : tally) {
    if (!best || weight > best->second) best = {candidate, weight};
  }
  return best;
}

Amount Election::weight_for(const BlockHash& candidate) const {
  Amount sum = 0;
  for (const auto& [rep, vote] : votes_)
    if (vote.candidate == candidate) sum += vote.weight;
  return sum;
}

Amount Election::total_voted_weight() const {
  Amount sum = 0;
  for (const auto& [rep, vote] : votes_) sum += vote.weight;
  return sum;
}

std::size_t Election::candidate_count() const {
  std::map<BlockHash, bool> seen;
  for (const auto& [rep, vote] : votes_) seen[vote.candidate] = true;
  return seen.size();
}

}  // namespace dlt::lattice
