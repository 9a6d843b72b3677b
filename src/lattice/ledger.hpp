// The block-lattice ledger: per-account chains, pending (unsettled) sends,
// representative weights, fork detection, rollback and pruning
// (paper §II-B, §III-B, §IV-B, §V-B).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lattice/block.hpp"
#include "storage/ledger_store.hpp"
#include "support/result.hpp"

namespace dlt::lattice {

struct LatticeParams {
  /// Anti-spam hashcash difficulty in leading zero bits (paper §III-B).
  int work_bits = 8;
  bool verify_work = true;
  /// Fraction of total voting weight required to confirm a block
  /// (paper §IV-B: "majority of votes").
  double vote_quorum = 0.5;
  /// Election timeout before a conflict is decided on current tallies.
  double election_duration = 4.0;
};

/// An in-flight transfer: a send whose receive has not yet happened --
/// "funds are pending in the network... transactions are deemed unsettled"
/// (paper §II-B, Fig. 3).
struct PendingInfo {
  crypto::AccountId source;
  crypto::AccountId destination;
  Amount amount = 0;
};

struct AccountInfo {
  /// Stored blocks; the block at chain[i] has height pruned_below + i.
  /// Pruning (§V-B) drops leading history while heights stay stable.
  std::vector<LatticeBlock> chain;
  std::uint32_t cemented_height = 0;  // blocks [0, cemented) irreversible
  std::uint32_t pruned_below = 0;     // heights below this are pruned

  const LatticeBlock& head() const { return chain.back(); }
  std::uint32_t height() const {
    return pruned_below + static_cast<std::uint32_t>(chain.size());
  }
  const LatticeBlock* block_at(std::uint32_t h) const {
    if (h < pruned_below || h >= height()) return nullptr;
    return &chain[h - pruned_below];
  }
};

class Ledger {
 public:
  Ledger(LatticeParams params, const crypto::AccountId& genesis_account,
         const crypto::AccountId& genesis_representative, Amount supply);

  const LatticeParams& params() const { return params_; }
  const LatticeBlock& genesis() const { return genesis_; }
  Amount supply() const { return supply_; }

  /// Validates and applies a block. Error codes of note:
  ///  "fork"         -- a different block already occupies this root
  ///  "gap-previous" -- predecessor unknown (paper §IV-B: a missing block
  ///                    makes the network ignore its successors)
  ///  "gap-source"   -- receive references an unknown send
  Status process(const LatticeBlock& block);

  /// Shared signature-verification cache used by process(); typically one
  /// per cluster (crypto/sigcache.hpp). May be null.
  void set_sigcache(std::shared_ptr<crypto::SignatureCache> cache) {
    sigcache_ = std::move(cache);
  }
  crypto::SignatureCache* sigcache() const { return sigcache_.get(); }

  // ---- Queries -----------------------------------------------------------
  const AccountInfo* account(const crypto::AccountId& id) const;
  std::optional<LatticeBlock> find_block(const BlockHash& hash) const;
  bool contains(const BlockHash& hash) const;
  Amount balance_of(const crypto::AccountId& id) const;
  std::optional<BlockHash> head_of(const crypto::AccountId& id) const;
  /// The block currently occupying a root, if any (fork inspection).
  std::optional<LatticeBlock> block_at_root(const Root& root) const;

  std::size_t account_count() const { return accounts_.size(); }
  std::uint64_t block_count() const { return block_count_; }

  /// Visits every account's head (frontier sync, paper (V-B node roles).
  void for_each_head(
      const std::function<void(const crypto::AccountId&, const BlockHash&)>&
          fn) const;

  // ---- Pending / settlement (Fig. 3) --------------------------------------
  const std::unordered_map<BlockHash, PendingInfo>& pending() const {
    return pending_;
  }
  std::vector<std::pair<BlockHash, PendingInfo>> pending_for(
      const crypto::AccountId& destination) const;
  Amount total_pending() const;

  // ---- Voting weight (paper §III-B) ---------------------------------------
  /// "A representative's weight is calculated as the sum of all balances
  /// for accounts that chose this representative."
  Amount weight_of(const crypto::AccountId& representative) const;
  Amount total_weight() const;  // == supply minus pending amounts, O(1)

  // ---- Conflict resolution support (§IV-B) --------------------------------
  /// Removes `hash` and everything depending on it (later blocks in its
  /// account chain, plus receives of rolled-back sends, recursively).
  /// Refuses to roll back cemented blocks. Returns the removed blocks.
  Result<std::vector<LatticeBlock>> rollback(const BlockHash& hash);

  /// Marks a block (and its ancestors) irreversible -- Nano's
  /// block-cementing (paper §IV-B: "prevent transactions from being rolled
  /// back after a certain period of time").
  Status cement(const BlockHash& hash);
  bool is_cemented(const BlockHash& hash) const;

  // ---- Persistent storage (ISSUE 9) ---------------------------------------
  /// Writes the lattice through to `store`: every applied block is appended
  /// to the log under RecordType::kBlock, the state backend tracks each
  /// account's frontier (head hash + balance — the §V-B "accounts keep
  /// record of account balances" state), rollbacks erase, and
  /// prune_history() becomes a log-catalog compaction. On a fresh store the
  /// genesis block is persisted; on a recovered one existing records are
  /// kept — combine with replay_from_store(). Mode-independent arithmetic:
  /// attaching a store never changes traces or results across modes.
  void attach_store(std::shared_ptr<storage::LedgerStore> store);
  const storage::LedgerStore* store() const { return store_.get(); }

  /// Recovery: decodes every kBlock record in append order and re-offers
  /// it to process(). Append order is admission order, so predecessors and
  /// source sends always precede their dependents. Returns blocks
  /// accepted; duplicates (genesis, already-replayed) are skipped. Disk
  /// mode only: a memory-mode log keeps no record bytes, so this returns 0.
  std::size_t replay_from_store();

  // ---- Pruning (§V-B) ------------------------------------------------------
  /// Discards historical blocks, keeping each account's head (and the
  /// balance it carries). Returns bytes reclaimed. "Since the accounts keep
  /// record of account balances... all other historical data can be
  /// discarded."
  std::uint64_t prune_history();

  struct StorageBreakdown {
    std::uint64_t blocks = 0;        // stored lattice blocks
    std::uint64_t pending_table = 0;
    std::uint64_t weight_table = 0;
    std::uint64_t total() const {
      return blocks + pending_table + weight_table;
    }
  };
  StorageBreakdown storage() const;

  /// Invariant check: balances + pending == supply, and the running
  /// pending sum behind total_weight() equals a rescan (tests).
  bool conserves_value() const;

 private:
  struct BlockLocation {
    crypto::AccountId account;
    std::uint32_t height = 0;
  };

  /// Checks `block` against the live ledger maps: signature and hashcash
  /// first, then the per-type state rules.
  Status validate(const LatticeBlock& block) const;
  /// The mutation half of process(): applies an already-validated block.
  void apply_validated(const LatticeBlock& block, const BlockHash& hash);
  void apply_weight_change(const crypto::AccountId& old_rep, Amount old_bal,
                           const crypto::AccountId& new_rep, Amount new_bal);
  /// Store write-through at the apply/rollback commit points.
  void persist_apply(const LatticeBlock& block, const BlockHash& hash);
  void persist_rollback(const LatticeBlock& block, const BlockHash& hash);
  Status rollback_one(const BlockHash& hash,
                      std::vector<LatticeBlock>& removed);

  LatticeParams params_;
  LatticeBlock genesis_;
  Amount supply_;

  std::unordered_map<crypto::AccountId, AccountInfo> accounts_;
  std::unordered_map<BlockHash, BlockLocation> locations_;
  std::unordered_map<BlockHash, PendingInfo> pending_;
  Amount pending_total_ = 0;  // sum of pending_ amounts, kept in step
  // Claimed sends: send hash -> (claiming block hash, original info);
  // needed to restore pending entries on rollback.
  std::unordered_map<BlockHash, std::pair<BlockHash, PendingInfo>> claimed_;
  std::unordered_map<crypto::AccountId, Amount> weights_;
  std::uint64_t block_count_ = 0;
  std::uint64_t pruned_blocks_ = 0;
  std::shared_ptr<storage::LedgerStore> store_;
  std::shared_ptr<crypto::SignatureCache> sigcache_;
};

}  // namespace dlt::lattice
