// Account-model world state over the authenticated trie (Ethereum,
// paper §II-A and §V-A).
//
// Each block maps to a trie version (its state root). Because the trie is
// persistent, "keeping the deltas" is simply retaining old versions, and
// §V-A pruning is dropping them. A reorg rolls back by re-pointing at the
// fork-point version.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "chain/account_tx.hpp"
#include "chain/params.hpp"
#include "crypto/trie.hpp"
#include "support/result.hpp"

namespace dlt::chain {

struct AccountState {
  Amount balance = 0;
  std::uint64_t nonce = 0;
  std::uint32_t code_size = 0;  // contract bytecode bytes (modelled)

  Bytes encode() const;
  static Result<AccountState> decode(ByteView raw);
};

/// One immutable world-state version (wraps one trie version).
class WorldState {
 public:
  WorldState() = default;

  Hash256 root() const { return trie_.root_hash(); }
  std::size_t account_count() const { return trie_.size(); }

  std::optional<AccountState> get(const crypto::AccountId& id) const;
  Amount balance_of(const crypto::AccountId& id) const;

  WorldState with_account(const crypto::AccountId& id,
                          const AccountState& st) const;

  /// Validates and executes a transaction: signature, nonce, balance
  /// covering value + max fee. Returns the post state; fees are credited
  /// to `fee_recipient` and unused gas refunded to the sender. A shared
  /// crypto::SignatureCache skips repeat signature verifications.
  Result<WorldState> apply_transaction(
      const AccountTransaction& tx, const crypto::AccountId& fee_recipient,
      const GasSchedule& gs = {},
      crypto::SignatureCache* sigcache = nullptr) const;

  /// Credits `amount` (block reward).
  WorldState credit(const crypto::AccountId& id, Amount amount) const;

  Amount total_supply() const;

  const crypto::Trie& trie() const { return trie_; }

 private:
  explicit WorldState(crypto::Trie t) : trie_(std::move(t)) {}
  crypto::Trie trie_;
};

/// Version store: state root -> WorldState. The chain layer registers each
/// block's post-state here; pruning erases versions older than a window
/// (§V-A "the deltas can be discarded without harming the chain integrity").
class StateDB {
 public:
  void put(const Hash256& root, WorldState state);
  std::optional<WorldState> get(const Hash256& root) const;
  bool contains(const Hash256& root) const { return versions_.count(root); }
  std::size_t version_count() const { return versions_.size(); }

  /// Drops every version except those in `keep`. Returns versions erased.
  std::size_t prune_except(const std::vector<Hash256>& keep);

  /// Unique trie nodes/bytes across all retained versions (structural
  /// sharing means this is the real on-disk footprint, i.e. the "deltas").
  std::pair<std::size_t, std::size_t> measure() const;

 private:
  std::unordered_map<Hash256, WorldState> versions_;
};

}  // namespace dlt::chain
