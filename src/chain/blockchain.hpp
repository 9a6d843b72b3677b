// The blockchain: block index, heaviest-chain fork choice, reorgs,
// orphan pool, state application and pruning (paper §II-A, §IV-A, §V-A).
//
// Soft forks (paper Fig. 4) arise naturally: two blocks claiming the same
// predecessor both enter the index; nodes keep building on what they saw
// first ("two chains possibly containing conflicting transactions") until
// one branch accumulates more work, at which point the loser is orphaned
// and its transactions must be re-included.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/difficulty.hpp"
#include "chain/params.hpp"
#include "chain/state.hpp"
#include "chain/utxo.hpp"
#include "crypto/sigcache.hpp"
#include "obs/metrics.hpp"
#include "storage/ledger_store.hpp"
#include "support/result.hpp"

namespace dlt::chain {

/// Initial ledger state hard-coded in the genesis block (paper §II-A:
/// "the initial state is hard-coded in the first block").
struct GenesisSpec {
  std::vector<std::pair<crypto::AccountId, Amount>> allocations;
  double timestamp = 0.0;
};

enum class Accept {
  kConnected,   // extended the active tip
  kReorged,     // switched to a heavier branch
  kSideChain,   // stored on a non-active branch
  kOrphaned,    // parent unknown; held in the orphan pool
  kDuplicate,   // already known
};

struct AcceptResult {
  Accept outcome = Accept::kConnected;
  std::uint32_t reorg_depth = 0;  // blocks disconnected (kReorged only)
};

struct ForkStats {
  std::uint64_t reorgs = 0;
  std::uint64_t blocks_disconnected = 0;  // total orphaned-off-main blocks
  std::uint32_t max_reorg_depth = 0;
  std::uint64_t side_chain_blocks = 0;    // blocks observed off the tip
};

class Blockchain {
 public:
  Blockchain(ChainParams params, GenesisSpec genesis);

  const ChainParams& params() const { return params_; }

  /// Validates and stores a block, advancing the active chain if it wins
  /// fork choice. Statelessly-invalid blocks are rejected with an error;
  /// state-invalid blocks are stored but marked invalid and never win.
  Result<AcceptResult> submit(const Block& block);

  // ---- Active chain queries -------------------------------------------
  BlockHash tip_hash() const { return active_.back(); }
  std::uint32_t height() const {
    return static_cast<std::uint32_t>(active_.size() - 1);
  }
  const Block* find(const BlockHash& hash) const;
  /// True if the block's body was discarded by prune_bodies (§V-A); such
  /// blocks cannot be served to syncing peers.
  bool body_pruned(const BlockHash& hash) const;
  const Block* at_height(std::uint32_t h) const;
  bool on_active_chain(const BlockHash& hash) const;
  double total_work() const;

  /// Confirmations of the block containing `txid`: tip_height - h + 1, or
  /// 0 if absent from the active chain (paper §IV-A's depth rule).
  std::uint32_t confirmations(const TxId& txid) const;
  /// Height of the active-chain block containing the tx, if any.
  std::optional<std::uint32_t> tx_height(const TxId& txid) const;

  // ---- State access ----------------------------------------------------
  const UtxoSet& utxo_set() const { return utxo_; }
  /// Current world state (account model only).
  const WorldState& world_state() const { return state_; }
  StateDB& state_db() { return state_db_; }
  const StateDB& state_db() const { return state_db_; }

  // ---- Block template support (miners) ----------------------------------
  /// Difficulty required of the block that would extend `parent`.
  double next_difficulty(const BlockHash& parent) const;
  /// Validates a candidate transaction list against the current tip state
  /// and computes the resulting state root (account model).
  Result<Hash256> compute_state_root(const AccountTxList& txs,
                                     const crypto::AccountId& proposer) const;

  // ---- Finality (PoS, §IV-A Casper FFG) ---------------------------------
  /// Marks a block final: the active chain may never reorg below it.
  Status finalize(const BlockHash& hash);
  std::uint32_t finalized_height() const { return finalized_height_; }

  // ---- Persistent storage (ISSUE 9) --------------------------------------
  /// Writes the chain through to `store` at its commit points: blocks are
  /// appended to the log when they enter the index, the chainstate backend
  /// tracks connects/disconnects, and pruning becomes catalog operations.
  /// On a fresh store the genesis block and initial chainstate are
  /// persisted; on a recovered store (LedgerStore opened with
  /// truncate=false) existing records are left in place — combine with
  /// replay_from_store(). Works identically in memory and disk mode; all
  /// storage accounting is mode-independent arithmetic, so attaching a
  /// store never changes traces or RunMetrics across modes.
  void attach_store(std::shared_ptr<storage::LedgerStore> store);
  const storage::LedgerStore* store() const { return store_.get(); }

  /// Recovery: decodes every kHeader/kBody pair from the attached store's
  /// log in append order and re-submits it. Fork choice re-derives the
  /// active chain deterministically. Returns blocks accepted (duplicates
  /// and the genesis record are skipped). Idempotent: replaying into a
  /// chain that already holds the blocks is a no-op.
  std::size_t replay_from_store();

  /// Reads a block back from the attached store's log (works for bodies
  /// offloaded from RAM).
  Result<Block> read_block(const BlockHash& hash) const;

  /// Disk mode only: drops the in-RAM transaction lists and undo data of
  /// active-chain blocks deeper than `keep_depth`, keeping their bodies
  /// readable via read_block(). This is how a ledger grows past RAM: the
  /// log keeps every byte while the resident index holds headers only.
  /// Reorgs below the offload point are rejected (as with prune_bodies).
  /// Returns resident bytes dropped. §V accounting is unchanged — the
  /// bodies still exist, on disk.
  std::uint64_t offload_bodies(std::uint32_t keep_depth);

  // ---- Pruning (§V-A) ----------------------------------------------------
  /// Bitcoin-style: discards raw bodies deeper than `keep_depth` below the
  /// tip, keeping headers and the chainstate. Returns bytes reclaimed.
  std::uint64_t prune_bodies(std::uint32_t keep_depth);
  /// Ethereum-style: discards state versions except the most recent
  /// `keep_depth` active blocks'. Returns versions erased.
  std::size_t prune_states(std::uint32_t keep_depth);

  // ---- Size accounting (§V) ----------------------------------------------
  struct StorageBreakdown {
    std::uint64_t headers = 0;
    std::uint64_t bodies = 0;
    std::uint64_t undo_data = 0;
    std::uint64_t chainstate = 0;   // UTXO set or current trie
    std::uint64_t state_history = 0;  // retained trie versions
    std::uint64_t receipts = 0;
    std::uint64_t total() const {
      return headers + bodies + undo_data + chainstate + state_history +
             receipts;
    }
  };
  StorageBreakdown storage() const;

  const ForkStats& fork_stats() const { return fork_stats_; }
  std::uint64_t blocks_known() const { return index_.size(); }

  /// Fires after a block joins / leaves the active chain (mempool upkeep,
  /// confirmation metrics). Disconnect fires in reverse chain order.
  void on_connect(std::function<void(const Block&)> fn) {
    connect_hooks_.push_back(std::move(fn));
  }
  void on_disconnect(std::function<void(const Block&)> fn) {
    disconnect_hooks_.push_back(std::move(fn));
  }

  /// Fires once per applied reorg with (depth, new tip height) — exactly
  /// when ForkStats::reorgs increments, including reorgs triggered deep in
  /// orphan processing, so trace-derived counts match the aggregate.
  void on_reorg(std::function<void(std::uint32_t, std::uint32_t)> fn) {
    reorg_hook_ = std::move(fn);
  }
  /// Fires when a valid block parks on a side chain (a fork opening).
  void on_side_chain(std::function<void(const Block&)> fn) {
    side_chain_hook_ = std::move(fn);
  }

  /// ASCII diagram of the block tree near the tip (examples/Fig. 4).
  std::string render_tree(std::uint32_t from_height = 0) const;

  // ---- Crypto hot path ---------------------------------------------------
  /// Shared signature-verification cache; typically one per cluster so the
  /// first node to verify a tx serves all others. May be null.
  void set_sigcache(std::shared_ptr<crypto::SignatureCache> cache) {
    sigcache_ = std::move(cache);
  }
  crypto::SignatureCache* sigcache() const { return sigcache_.get(); }

  /// Wall-clock profiling of the validation hot path. Durations land in
  /// the `profile.connect_block_us` histogram; they never enter traces
  /// (see obs/profile.hpp). May be null.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Record {
    Block block;
    BlockHash hash;
    double total_work = 0.0;
    bool state_valid = true;   // set false when connect fails
    bool body_pruned = false;
    /// Body bytes moved out of RAM by offload_bodies (0 = resident). The
    /// §V size accounting still counts them: they live in the log.
    std::uint64_t offloaded_body_bytes = 0;
    BlockUndo undo;            // UTXO model: populated while connected
  };

  Record* find_record(const BlockHash& hash);
  const Record* find_record(const BlockHash& hash) const;
  Status check_stateless(const Block& block) const;
  Status check_contextual(const Block& block, const Record& parent) const;

  /// Connects `rec`'s block on top of the current state. On failure the
  /// state is left untouched and the record is marked invalid.
  Status connect_block(Record& rec);

  /// The stateful phase, one per ledger model.
  Status connect_utxo(Record& rec);
  Status connect_account(Record& rec);

  void disconnect_tip();

  /// Storage write-through (no-ops without an attached store). Block
  /// records are appended once, when the block enters the index;
  /// connect/disconnect mirror the chainstate into the state backend on
  /// the simulation thread at the commit point.
  void persist_block(const Record& rec);
  void persist_connect(const Record& rec);
  void persist_disconnect(const Record& rec);

  /// Attempts to make `candidate` the active tip (it must be heavier).
  /// Returns the reorg depth, or an error if its branch proved invalid.
  Result<std::uint32_t> adopt_branch(const BlockHash& candidate);

  void process_orphans(const BlockHash& parent);

  ChainParams params_;
  GasSchedule gas_;

  std::unordered_map<BlockHash, Record> index_;
  std::vector<BlockHash> active_;  // height -> hash
  std::unordered_map<BlockHash, std::vector<Block>> orphans_;  // by parent
  std::unordered_map<TxId, BlockHash> tx_index_;  // active-chain txs only

  UtxoSet utxo_;
  WorldState state_;
  StateDB state_db_;

  std::uint32_t finalized_height_ = 0;
  std::uint32_t pruned_below_ = 0;  // bodies pruned strictly below height
  ForkStats fork_stats_;

  std::vector<std::function<void(const Block&)>> connect_hooks_;
  std::vector<std::function<void(const Block&)>> disconnect_hooks_;
  std::function<void(std::uint32_t, std::uint32_t)> reorg_hook_;
  std::function<void(const Block&)> side_chain_hook_;

  std::shared_ptr<storage::LedgerStore> store_;

  std::shared_ptr<crypto::SignatureCache> sigcache_;

  obs::Histogram* profile_connect_ = nullptr;
};

/// Builds the deterministic genesis block for a spec (shared by all nodes).
Block make_genesis_block(const ChainParams& params, const GenesisSpec& spec);

}  // namespace dlt::chain
