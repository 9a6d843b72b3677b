#include "chain/mempool.hpp"

#include <algorithm>

namespace dlt::chain {

Status UtxoMempool::add(const UtxoTransaction& tx, const UtxoSet& utxo,
                        std::uint32_t height,
                        crypto::SignatureCache* sigcache) {
  const TxId id = tx.id();
  if (pool_.count(id)) return make_error("already-pooled");
  std::vector<TxId> conflicts;
  for (const TxIn& in : tx.inputs) {
    auto claim = claimed_.find(in.prevout);
    if (claim != claimed_.end()) conflicts.push_back(claim->second);
  }
  if (!conflicts.empty() && capacity_ == 0)
    return make_error("mempool-conflict", "input claimed by pooled tx");

  auto fee = utxo.check_transaction(tx, height, sigcache);
  if (!fee) return fee.error();

  const std::size_t bytes = tx.serialized_size();
  const double rate = static_cast<double>(*fee) / static_cast<double>(bytes);

  if (!conflicts.empty()) {
    // Replace-by-fee: the newcomer must strictly out-bid EVERY pooled
    // conflict's fee rate; then the conflicts (and their descendant
    // closures) are evicted. Equal rates never replace.
    std::sort(conflicts.begin(), conflicts.end());
    conflicts.erase(std::unique(conflicts.begin(), conflicts.end()),
                    conflicts.end());
    for (const TxId& cid : conflicts) {
      auto it = pool_.find(cid);
      if (it != pool_.end() && it->second.fee_rate() >= rate)
        return make_error("mempool-conflict", "replacement fee rate too low");
    }
    for (const TxId& cid : conflicts) evict_tx(cid);
  }

  if (capacity_ > 0) {
    if (bytes > capacity_)
      return make_error("mempool-full", "transaction larger than capacity");
    if (pending_bytes_ + bytes > capacity_) {
      // Plan before evicting: walk victims from the worst fee rate up
      // (newest among ties — the canonical tiebreak, see header), each
      // bringing its pooled descendant closure along. Only strictly
      // lower-rate victims qualify; if the plan cannot free enough bytes
      // the add backpressures WITHOUT disturbing the pool.
      std::unordered_set<TxId> planned;
      std::vector<TxId> victims;
      std::uint64_t freed = 0;
      auto it = by_rate_.rbegin();
      while (pending_bytes_ - freed + bytes > capacity_) {
        while (it != by_rate_.rend() &&
               planned.count(it->second->tx.id()) != 0)
          ++it;
        if (it == by_rate_.rend() || it->first.rate >= rate)
          return make_error("mempool-full", "fee rate below eviction floor");
        const TxId vid = it->second->tx.id();
        freed += plan_closure(vid, planned);
        victims.push_back(vid);
        ++it;
      }
      for (const TxId& vid : victims) evict_tx(vid);
    }
  }

  Entry entry{tx, *fee, bytes, next_seq_++};
  pending_bytes_ += entry.bytes;
  for (const TxIn& in : tx.inputs) claimed_[in.prevout] = id;
  auto [it, inserted] = pool_.emplace(id, std::move(entry));
  by_rate_.emplace(SelKey{it->second.fee_rate(), it->second.seq},
                   &it->second);
  return Status::success();
}

std::vector<UtxoTransaction> UtxoMempool::select(
    std::uint64_t max_bytes) const {
  std::vector<UtxoTransaction> out;
  std::uint64_t used = 0;
  for (const auto& [key, e] : by_rate_) {
    if (max_bytes > 0 && used + e->bytes > max_bytes) continue;
    out.push_back(e->tx);
    used += e->bytes;
  }
  return out;
}

void UtxoMempool::drop_entry(std::unordered_map<TxId, Entry>::iterator it) {
  const Entry& entry = it->second;
  pending_bytes_ -= entry.bytes;
  by_rate_.erase(SelKey{entry.fee_rate(), entry.seq});
  for (const TxIn& in : entry.tx.inputs) claimed_.erase(in.prevout);
  pool_.erase(it);
}

std::uint64_t UtxoMempool::plan_closure(
    const TxId& id, std::unordered_set<TxId>& planned) const {
  if (!planned.insert(id).second) return 0;
  auto it = pool_.find(id);
  if (it == pool_.end()) return 0;
  std::uint64_t bytes = it->second.bytes;
  for (std::uint32_t j = 0;
       j < static_cast<std::uint32_t>(it->second.tx.outputs.size()); ++j) {
    auto claim = claimed_.find(Outpoint{id, j});
    if (claim != claimed_.end()) bytes += plan_closure(claim->second, planned);
  }
  return bytes;
}

void UtxoMempool::evict_tx(const TxId& id) {
  auto it = pool_.find(id);
  if (it == pool_.end()) return;
  // Copy: the recursion and the handler run while iterators churn.
  const UtxoTransaction tx = it->second.tx;
  for (std::uint32_t j = 0; j < static_cast<std::uint32_t>(tx.outputs.size());
       ++j) {
    auto claim = claimed_.find(Outpoint{id, j});
    if (claim != claimed_.end()) evict_tx(claim->second);
  }
  it = pool_.find(id);
  if (it == pool_.end()) return;
  drop_entry(it);
  if (evict_handler_) evict_handler_(tx);
}

void UtxoMempool::remove_included(const std::vector<UtxoTransaction>& txs) {
  // Inputs spent by the block invalidate any pool entry claiming them.
  for (const UtxoTransaction& tx : txs) {
    auto it = pool_.find(tx.id());
    if (it != pool_.end()) drop_entry(it);
    for (const TxIn& in : tx.inputs) {
      auto claim = claimed_.find(in.prevout);
      if (claim == claimed_.end()) continue;
      auto conflict = pool_.find(claim->second);
      if (conflict != pool_.end()) {
        drop_entry(conflict);
      } else {
        claimed_.erase(claim);
      }
    }
  }
}

void UtxoMempool::reinject(const std::vector<UtxoTransaction>& txs,
                           const UtxoSet& utxo, std::uint32_t height,
                           crypto::SignatureCache* sigcache) {
  for (const UtxoTransaction& tx : txs) {
    if (tx.is_coinbase()) continue;  // coinbases die with their block
    Status st = add(tx, utxo, height, sigcache);  // best effort
    // A reinject refused by the fee market is an explicit eviction (the
    // tx was standing before the reorg); surface it so admission.*
    // reconciles. Validation failures (re-mined elsewhere) stay silent.
    if (!st.ok() && st.error().code == "mempool-full" && evict_handler_)
      evict_handler_(tx);
  }
}

std::uint64_t AccountMempool::entry_bytes(const AccountTransaction& tx) const {
  const std::size_t b = tx.serialized_size();
  return b == 0 ? 1 : static_cast<std::uint64_t>(b);
}

Status AccountMempool::add(const AccountTransaction& tx,
                           const WorldState& state,
                           crypto::SignatureCache* sigcache) {
  if (!tx.verify_signature(sigcache)) return make_error("bad-signature");
  auto account = state.get(tx.from);
  const std::uint64_t base_nonce = account ? account->nonce : 0;
  if (tx.nonce < base_nonce)
    return make_error("stale-nonce", "nonce already used");

  const std::uint64_t bytes = entry_bytes(tx);
  if (capacity_ > 0 && bytes > capacity_)
    return make_error("mempool-full", "transaction larger than capacity");

  auto& queue = by_sender_[tx.from];
  auto existing = queue.find(tx.nonce);
  const bool replacing = existing != queue.end();
  if (replacing) {
    // Same-nonce replacement needs a capped pool and a strictly higher
    // gas price — equal prices never replace.
    if (capacity_ == 0 || tx.gas_price <= existing->second.tx.gas_price)
      return make_error("duplicate-nonce");
  } else {
    // Contiguity: nonce must extend the queue (or be the base nonce).
    const std::uint64_t expected =
        queue.empty() ? base_nonce : queue.rbegin()->first + 1;
    if (tx.nonce != expected)
      return make_error("nonce-gap", "non-contiguous nonce");
  }

  std::uint64_t occupied = pending_bytes_;
  if (replacing) occupied -= existing->second.bytes;
  if (capacity_ > 0 && occupied + bytes > capacity_) {
    // Plan capacity victims without mutating: candidates are other
    // senders' queue TAILS (never interior nonces — that would orphan
    // the rest of the queue, and never the incoming sender's own tail —
    // that would gap the incoming nonce). The victim order is a total
    // one — lowest gas price, newest admission (highest seq) among ties
    // — so the unordered sender scan cannot leak iteration order.
    struct Victim {
      crypto::AccountId sender;
      std::uint64_t nonce = 0;
    };
    std::unordered_map<crypto::AccountId, std::size_t> planned_tail;
    std::vector<Victim> victims;
    std::uint64_t freed = 0;
    while (occupied - freed + bytes > capacity_) {
      const Entry* best = nullptr;
      Victim pick;
      for (const auto& [sender, q] : by_sender_) {
        if (sender == tx.from) continue;
        const std::size_t skip = planned_tail[sender];
        if (skip >= q.size()) continue;
        auto rit = std::next(q.rbegin(), static_cast<std::ptrdiff_t>(skip));
        const Entry& cand = rit->second;
        if (best == nullptr ||
            cand.tx.gas_price < best->tx.gas_price ||
            (cand.tx.gas_price == best->tx.gas_price &&
             cand.seq > best->seq)) {
          best = &cand;
          pick = Victim{sender, rit->first};
        }
      }
      if (best == nullptr || best->tx.gas_price >= tx.gas_price)
        return make_error("mempool-full", "gas price below eviction floor");
      freed += best->bytes;
      ++planned_tail[pick.sender];
      victims.push_back(pick);
    }
    // Commit tail-first per sender (victims were planned that way).
    for (const Victim& v : victims) {
      auto sit = by_sender_.find(v.sender);
      if (sit == by_sender_.end()) continue;
      auto eit = sit->second.find(v.nonce);
      if (eit == sit->second.end()) continue;
      const Entry victim = eit->second;
      note_drop(victim);
      sit->second.erase(eit);
      if (sit->second.empty()) by_sender_.erase(sit);
      if (evict_handler_) evict_handler_(victim.tx);
    }
  }

  if (replacing) {
    const Entry old = existing->second;
    note_drop(old);
    existing->second = Entry{tx, next_seq_++, bytes};
    pending_bytes_ += bytes;
    if (evict_handler_) evict_handler_(old.tx);
  } else {
    queue.emplace(tx.nonce, Entry{tx, next_seq_++, bytes});
    pending_bytes_ += bytes;
  }
  return Status::success();
}

std::vector<AccountTransaction> AccountMempool::select(
    std::uint64_t gas_limit, const WorldState& state) const {
  // Per-sender cursors in a max-heap keyed by the head transaction's gas
  // price (ties: smaller sender id first, a deterministic canonical
  // order). Each pick is O(log senders); nonce order is preserved because
  // only the head of each sender's queue is ever eligible.
  struct Cursor {
    std::map<std::uint64_t, Entry>::const_iterator it, end;
    crypto::AccountId sender;
  };
  // std::push_heap keeps the *greatest* element first, so "less" means
  // lower price, or equal price with a larger sender id.
  const auto worse = [](const Cursor& a, const Cursor& b) {
    const std::uint64_t pa = a.it->second.tx.gas_price;
    const std::uint64_t pb = b.it->second.tx.gas_price;
    if (pa != pb) return pa < pb;
    return b.sender < a.sender;
  };

  std::vector<Cursor> heap;
  for (const auto& [sender, queue] : by_sender_) {
    auto account = state.get(sender);
    const std::uint64_t next_nonce = account ? account->nonce : 0;
    auto it = queue.find(next_nonce);
    if (it != queue.end()) heap.push_back({it, queue.end(), sender});
  }
  std::make_heap(heap.begin(), heap.end(), worse);

  std::vector<AccountTransaction> out;
  std::uint64_t gas_used = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    Cursor c = heap.back();
    heap.pop_back();
    const AccountTransaction& tx = c.it->second.tx;
    if (gas_limit > 0 && gas_used + tx.gas_used() > gas_limit) {
      // Head does not fit; gas_used only grows, so this sender is done
      // (its later nonces cannot be picked before the head).
      continue;
    }
    out.push_back(tx);
    gas_used += tx.gas_used();
    if (++c.it != c.end) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return out;
}

void AccountMempool::remove_included(
    const std::vector<AccountTransaction>& txs) {
  for (const AccountTransaction& tx : txs) {
    auto it = by_sender_.find(tx.from);
    if (it == by_sender_.end()) continue;
    // The included nonce and anything below it are now unusable.
    auto& queue = it->second;
    const auto last = queue.upper_bound(tx.nonce);
    for (auto e = queue.begin(); e != last; ++e) note_drop(e->second);
    queue.erase(queue.begin(), last);
    if (queue.empty()) by_sender_.erase(it);
  }
}

void AccountMempool::reinject(const std::vector<AccountTransaction>& txs,
                              const WorldState& state,
                              crypto::SignatureCache* sigcache) {
  // Disconnected-block txs come back in nonce order per sender.
  std::vector<AccountTransaction> sorted = txs;
  std::sort(sorted.begin(), sorted.end(),
            [](const AccountTransaction& a, const AccountTransaction& b) {
              if (a.from != b.from) return a.from < b.from;
              return a.nonce < b.nonce;
            });
  for (const AccountTransaction& tx : sorted) {
    Status st = add(tx, state, sigcache);
    // Capacity-refused reinjects are explicit evictions (see UtxoMempool).
    if (!st.ok() && st.error().code == "mempool-full" && evict_handler_)
      evict_handler_(tx);
  }
}

void AccountMempool::revalidate(const WorldState& state) {
  for (auto it = by_sender_.begin(); it != by_sender_.end();) {
    auto account = state.get(it->first);
    const std::uint64_t next_nonce = account ? account->nonce : 0;
    auto& queue = it->second;
    const auto last = queue.lower_bound(next_nonce);
    for (auto e = queue.begin(); e != last; ++e) note_drop(e->second);
    queue.erase(queue.begin(), last);
    it = queue.empty() ? by_sender_.erase(it) : std::next(it);
  }
}

bool AccountMempool::contains_nonce(const crypto::AccountId& sender,
                                    std::uint64_t nonce) const {
  auto it = by_sender_.find(sender);
  return it != by_sender_.end() && it->second.count(nonce) != 0;
}

bool AccountMempool::contains(const Hash256& id) const {
  for (const auto& [sender, queue] : by_sender_)
    for (const auto& [nonce, e] : queue)
      if (e.tx.id() == id) return true;
  return false;
}

std::size_t AccountMempool::size() const {
  std::size_t n = 0;
  for (const auto& [sender, queue] : by_sender_) n += queue.size();
  return n;
}

std::uint64_t AccountMempool::pending_gas() const {
  std::uint64_t gas = 0;
  for (const auto& [sender, queue] : by_sender_)
    for (const auto& [nonce, e] : queue) gas += e.tx.gas_used();
  return gas;
}

}  // namespace dlt::chain
