// UTXO set: the Bitcoin-model chain state (paper §II-A, §V-B contrast:
// "the accounts keep record of account balances instead of unspent
// transaction inputs").
//
// Applying a block consumes spent outputs and creates new ones, producing
// an undo record so a soft-fork reorg (paper Fig. 4) can roll the state
// back block by block.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/transaction.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "support/result.hpp"

namespace dlt::chain {

/// Undo data for one applied transaction: what it spent (to restore) and
/// what it created (to delete) on revert.
struct TxUndo {
  std::vector<std::pair<Outpoint, TxOut>> spent;
  std::vector<Outpoint> created;
};

struct BlockUndo {
  std::vector<TxUndo> txs;  // in block order
};

class UtxoSet {
 public:
  std::size_t size() const { return map_.size(); }

  bool contains(const Outpoint& op) const { return map_.count(op) != 0; }

  /// Validates a transaction against this set and current height:
  /// inputs exist, signatures valid, owners match, no value inflation,
  /// lock height respected. Returns the fee (inputs - outputs). A shared
  /// crypto::SignatureCache skips repeat input-signature verifications.
  Result<Amount> check_transaction(
      const UtxoTransaction& tx, std::uint32_t height,
      crypto::SignatureCache* sigcache = nullptr) const;

  /// Applies an already-checked transaction; returns its undo record.
  TxUndo apply_transaction(const UtxoTransaction& tx);

  /// Reverts a transaction using its undo record (inverse order of apply).
  void revert_transaction(const TxUndo& undo);

  /// Counts apply_transaction and revert_transaction calls, the only
  /// mutations of the set. A cache of anything read from the set, such as
  /// the cluster wallet's per-account coin lists, is current exactly while
  /// this value is unchanged. The tip hash is not a substitute: a block
  /// whose later transaction fails is unwound by revert_transaction, so the
  /// tip stays put and no connect hook fires, yet the erase and re-insert
  /// may reorder the wallet index that for_each_owned walks.
  std::uint64_t generation() const { return generation_; }

  /// Sum of all unspent values (conservation checks in tests).
  Amount total_value() const;

  /// All outpoints owned by `owner`, via the wallet index (O(own coins)).
  std::vector<std::pair<Outpoint, TxOut>> find_owned(
      const crypto::AccountId& owner) const;

  /// Visits `owner`'s coins in the same wallet-index order as find_owned,
  /// without materializing a vector. `fn(outpoint, txout)` returns false
  /// to stop early. The order stays fixed while generation() does.
  template <typename Fn>
  void for_each_owned(const crypto::AccountId& owner, Fn&& fn) const {
    auto idx = by_owner_.find(owner);
    if (idx == by_owner_.end()) return;
    for (const Outpoint& op : idx->second) {
      auto it = map_.find(op);
      if (it == map_.end()) continue;  // index is kept in lockstep; defensive
      if (!fn(it->first, it->second)) return;
    }
  }

  /// Serialized-size model of the set (chainstate database size).
  std::size_t stored_bytes() const;

 private:
  void drop_index(const Outpoint& op, const crypto::AccountId& owner);

  std::unordered_map<Outpoint, TxOut> map_;
  // Wallet index: owner -> outpoints. Kept in lockstep with map_.
  std::unordered_map<crypto::AccountId, std::unordered_set<Outpoint>>
      by_owner_;
  std::uint64_t generation_ = 0;
};

}  // namespace dlt::chain
