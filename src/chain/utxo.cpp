#include "chain/utxo.hpp"

#include <cassert>
#include <unordered_set>

namespace dlt::chain {

Result<Amount> UtxoSet::check_transaction(
    const UtxoTransaction& tx, std::uint32_t height,
    crypto::SignatureCache* sigcache) const {
  if (tx.lock_height > height)
    return make_error("premature", "lock_height above current height");
  if (tx.is_coinbase())
    return make_error("unexpected-coinbase",
                      "coinbase checked at block level");
  if (tx.outputs.empty()) return make_error("no-outputs");

  const Hash256 digest = tx.sighash();
  Amount in_sum = 0;
  // Duplicate-input detection: the common case is a handful of inputs, so
  // scan the preceding ones linearly (no allocation). Fall back to a hash
  // set only for wide fan-in, keeping adversarial many-input txs O(n).
  constexpr std::size_t kLinearScanMax = 16;
  std::unordered_set<Outpoint> seen;
  if (tx.inputs.size() > kLinearScanMax) seen.reserve(tx.inputs.size());
  for (std::size_t i = 0; i < tx.inputs.size(); ++i) {
    const TxIn& in = tx.inputs[i];
    if (tx.inputs.size() <= kLinearScanMax) {
      for (std::size_t j = 0; j < i; ++j)
        if (tx.inputs[j].prevout == in.prevout)
          return make_error("double-spend", "duplicate input within tx");
    } else if (!seen.insert(in.prevout).second) {
      return make_error("double-spend", "duplicate input within tx");
    }

    auto prev = map_.find(in.prevout);
    if (prev == map_.end())
      return make_error("missing-utxo", "input not in UTXO set");
    if (crypto::account_of(in.pubkey) != prev->second.owner)
      return make_error("wrong-owner", "pubkey does not own prevout");
    if (!crypto::verify_cached(sigcache, in.pubkey, digest, in.signature))
      return make_error("bad-signature");
    in_sum += prev->second.value;
  }

  const Amount out_sum = tx.total_output();
  if (out_sum > in_sum)
    return make_error("inflation", "outputs exceed inputs");
  return in_sum - out_sum;  // fee
}

TxUndo UtxoSet::apply_transaction(const UtxoTransaction& tx) {
  ++generation_;
  TxUndo undo;
  for (const TxIn& in : tx.inputs) {
    auto it = map_.find(in.prevout);
    assert(it != map_.end() && "apply of unchecked transaction");
    undo.spent.emplace_back(it->first, it->second);
    drop_index(it->first, it->second.owner);
    map_.erase(it);
  }
  const TxId txid = tx.id();
  for (std::uint32_t i = 0; i < tx.outputs.size(); ++i) {
    const Outpoint op{txid, i};
    map_.emplace(op, tx.outputs[i]);
    by_owner_[tx.outputs[i].owner].insert(op);
    undo.created.push_back(op);
  }
  return undo;
}

void UtxoSet::revert_transaction(const TxUndo& undo) {
  ++generation_;
  for (const Outpoint& op : undo.created) {
    auto it = map_.find(op);
    if (it != map_.end()) {
      drop_index(op, it->second.owner);
      map_.erase(it);
    }
  }
  for (const auto& [op, out] : undo.spent) {
    map_.emplace(op, out);
    by_owner_[out.owner].insert(op);
  }
}

void UtxoSet::drop_index(const Outpoint& op, const crypto::AccountId& owner) {
  auto idx = by_owner_.find(owner);
  if (idx == by_owner_.end()) return;
  idx->second.erase(op);
  if (idx->second.empty()) by_owner_.erase(idx);
}

Amount UtxoSet::total_value() const {
  Amount sum = 0;
  for (const auto& [op, out] : map_) sum += out.value;
  return sum;
}

std::vector<std::pair<Outpoint, TxOut>> UtxoSet::find_owned(
    const crypto::AccountId& owner) const {
  std::vector<std::pair<Outpoint, TxOut>> out;
  auto idx = by_owner_.find(owner);
  if (idx == by_owner_.end()) return out;
  out.reserve(idx->second.size());
  for (const Outpoint& op : idx->second) {
    auto it = map_.find(op);
    assert(it != map_.end());
    out.emplace_back(op, it->second);
  }
  return out;
}

std::size_t UtxoSet::stored_bytes() const {
  // outpoint (36) + value (8) + owner (32) per entry.
  return map_.size() * 76;
}

}  // namespace dlt::chain
