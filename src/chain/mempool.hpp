// Mempools: pending-transaction pools with fee prioritization.
//
// Paper §VI: "there were around 186,951 pending transactions in the Bitcoin
// network and around 22,473 pending in the Ethereum network" -- the pending
// backlog is the visible symptom of the throughput cap, and the throughput
// benches report exactly this queue depth over time.
// Admission control (ISSUE 10): both pools optionally run a byte-capacity
// fee market. With set_capacity(bytes), an add() that would overflow the
// cap evicts the lowest-fee-rate entries (newest among ties — the
// canonical tiebreak shared with core::AdmissionQueue) but only when the
// incoming fee rate is STRICTLY higher than every victim's; otherwise the
// add fails with code "mempool-full" (backpressure). A capped pool also
// replaces (RBF / same-nonce); an uncapped pool keeps the plain conflict
// semantics. Evictions and replacements fire the evict handler so the
// cluster can retire lifecycle entries and keep admission.* counters
// reconciling.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/account_tx.hpp"
#include "chain/state.hpp"
#include "chain/transaction.hpp"
#include "chain/utxo.hpp"
#include "support/result.hpp"

namespace dlt::chain {

/// Bitcoin-style mempool: validated against the UTXO set, prioritized by
/// fee rate (fee per serialized byte), conflict-aware.
class UtxoMempool {
 public:
  /// Validates and admits a transaction. Rejects double spends against
  /// both the chainstate and already-pooled transactions.
  Status add(const UtxoTransaction& tx, const UtxoSet& utxo,
             std::uint32_t height, crypto::SignatureCache* sigcache = nullptr);

  /// Greedy selection by fee rate under a byte budget (block building).
  /// Walks the incrementally maintained fee-rate index — no per-call sort.
  /// Equal fee rates break ties by admission order (FIFO), a canonical
  /// order the old sort-the-whole-pool implementation left unspecified.
  std::vector<UtxoTransaction> select(std::uint64_t max_bytes) const;

  /// Drops transactions included in a connected block, plus any pool
  /// entries their inputs now conflict with.
  void remove_included(const std::vector<UtxoTransaction>& txs);

  /// Re-admits transactions from a disconnected (orphaned) block --
  /// paper §IV-A: "orphaned transactions need to be included in a new
  /// block". Invalid ones (e.g. re-mined elsewhere) are silently dropped.
  void reinject(const std::vector<UtxoTransaction>& txs, const UtxoSet& utxo,
                std::uint32_t height,
                crypto::SignatureCache* sigcache = nullptr);

  bool contains(const TxId& id) const { return pool_.count(id) != 0; }
  std::size_t size() const { return pool_.size(); }
  std::uint64_t pending_bytes() const { return pending_bytes_; }

  /// Byte-capacity fee market (0 = unlimited, the historical behaviour).
  /// A capped pool also runs replace-by-fee: a conflicting tx whose fee
  /// rate strictly exceeds EVERY pooled conflict's replaces them
  /// (conflicts and their pooled descendants are evicted). Uncapped,
  /// conflicts reject with "mempool-conflict".
  void set_capacity(std::uint64_t bytes) { capacity_ = bytes; }
  std::uint64_t capacity() const { return capacity_; }
  /// Called once per transaction displaced by the fee market (capacity
  /// eviction, replacement cascade, or a capacity-refused reinject) —
  /// NOT for inclusion-driven removals.
  using EvictHandler = std::function<void(const UtxoTransaction&)>;
  void set_evict_handler(EvictHandler fn) { evict_handler_ = std::move(fn); }

 private:
  struct Entry {
    UtxoTransaction tx;
    Amount fee = 0;
    std::size_t bytes = 0;
    std::uint64_t seq = 0;  // admission order, the fee-rate tiebreak
    double fee_rate() const {
      return static_cast<double>(fee) / static_cast<double>(bytes);
    }
  };
  // Selection order: fee rate descending, admission sequence ascending.
  struct SelKey {
    double rate;
    std::uint64_t seq;
  };
  struct SelOrder {
    bool operator()(const SelKey& a, const SelKey& b) const {
      if (a.rate != b.rate) return a.rate > b.rate;
      return a.seq < b.seq;
    }
  };

  void drop_entry(std::unordered_map<TxId, Entry>::iterator it);
  /// Fee-market removal: drops `id` and (recursively) any pooled
  /// descendants spending its outputs — children first, in output-index
  /// order — firing the evict handler per dropped tx.
  void evict_tx(const TxId& id);
  /// Plans the eviction closure of `id`: marks it and its pooled
  /// descendants in `planned`, returning the bytes they occupy. Pure —
  /// lets add() verify a capacity plan frees enough before evicting.
  std::uint64_t plan_closure(const TxId& id,
                             std::unordered_set<TxId>& planned) const;

  std::unordered_map<TxId, Entry> pool_;
  std::unordered_map<Outpoint, TxId> claimed_;  // input -> claiming tx
  // Fee-rate-ordered view of pool_ (pointees are stable: pool_ is
  // node-based), kept in sync by add/drop_entry.
  std::map<SelKey, const Entry*, SelOrder> by_rate_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t capacity_ = 0;  // 0 = unlimited
  EvictHandler evict_handler_;
};

/// Ethereum-style mempool: per-sender nonce ordering, gas-price priority.
class AccountMempool {
 public:
  /// Admits a transaction whose nonce is the sender's next pending nonce
  /// (contiguous queues per sender; gaps are rejected as in geth's default).
  Status add(const AccountTransaction& tx, const WorldState& state,
             crypto::SignatureCache* sigcache = nullptr);

  /// Selects highest-gas-price executable transactions under the block gas
  /// limit, never violating per-sender nonce order. Candidate heads are
  /// kept in a heap keyed (gas price descending, sender id ascending) —
  /// O(log senders) per pick instead of a full cursor scan, with a
  /// canonical tie order the old scan left to hash-map iteration.
  std::vector<AccountTransaction> select(std::uint64_t gas_limit,
                                         const WorldState& state) const;

  void remove_included(const std::vector<AccountTransaction>& txs);
  void reinject(const std::vector<AccountTransaction>& txs,
                const WorldState& state,
                crypto::SignatureCache* sigcache = nullptr);
  /// Drops entries made invalid by the current state (stale nonces).
  void revalidate(const WorldState& state);

  bool contains(const Hash256& id) const;
  /// True when `sender` has a pooled transaction at `nonce` (evict
  /// handlers use this to tell a replacement — slot still occupied —
  /// from a capacity eviction).
  bool contains_nonce(const crypto::AccountId& sender,
                      std::uint64_t nonce) const;
  std::size_t size() const;
  std::uint64_t pending_gas() const;
  std::uint64_t pending_bytes() const { return pending_bytes_; }

  /// Byte-capacity fee market (0 = unlimited). Capacity victims are
  /// per-sender queue TAILS only (never interior nonces — evicting those
  /// would orphan the rest of the queue), chosen by lowest gas price with
  /// newest admission (highest seq) breaking ties. A capped pool also runs
  /// same-nonce replacement: a strictly higher gas price replaces the
  /// pooled tx at that nonce. Uncapped, it rejects ("duplicate-nonce").
  void set_capacity(std::uint64_t bytes) { capacity_ = bytes; }
  std::uint64_t capacity() const { return capacity_; }
  using EvictHandler = std::function<void(const AccountTransaction&)>;
  void set_evict_handler(EvictHandler fn) { evict_handler_ = std::move(fn); }

 private:
  struct Entry {
    AccountTransaction tx;
    std::uint64_t seq = 0;    // admission order, the eviction tiebreak
    std::uint64_t bytes = 0;  // serialized size, cached
  };

  std::uint64_t entry_bytes(const AccountTransaction& tx) const;
  void note_drop(const Entry& e) { pending_bytes_ -= e.bytes; }

  // sender -> (nonce -> entry), nonce-sorted.
  std::unordered_map<crypto::AccountId, std::map<std::uint64_t, Entry>>
      by_sender_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t capacity_ = 0;  // 0 = unlimited
  EvictHandler evict_handler_;
};

}  // namespace dlt::chain
