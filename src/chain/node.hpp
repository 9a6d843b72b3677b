// A full blockchain network participant: local chain replica, mempool,
// gossip handlers, and optionally a PoW miner or PoS validator
// (paper §III, §IV-A, §VI-A).
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/pos.hpp"
#include "net/network.hpp"
#include "obs/probe.hpp"
#include "support/stats.hpp"

namespace dlt::obs {
class LatencyTracker;
}

namespace dlt::chain {

/// Stake ledger entry shared by all nodes at startup (the "deposit
/// contract" state; paper §III-A2).
struct StakeAllocation {
  crypto::AccountId validator;
  std::uint64_t pubkey = 0;
  Amount stake = 0;
};

struct NodeConfig {
  /// PoW mining speed in hash attempts per simulated second (0 = no miner).
  double hashrate = 0.0;
  /// Solve hashcash for real when producing blocks (pairs with
  /// params.verify_pow; needs low difficulty).
  bool solve_pow = false;
  /// Coinbase / fee recipient and PoS signing identity.
  std::uint64_t wallet_seed = 1;
  /// Signature-verification cache, usually shared across the whole cluster
  /// (crypto/sigcache.hpp). Null = verify every signature from scratch.
  std::shared_ptr<crypto::SignatureCache> sigcache;
  /// Observability hookup (cluster-owned registry + tracer). A default
  /// probe is inert; see obs/probe.hpp.
  obs::Probe probe;
  /// Cluster-owned transaction-lifecycle tracker (obs/latency.hpp); the
  /// node stamps include/confirm for engine-submitted transactions it
  /// tracks locally. Null = emit the historical tx_included/tx_confirmed
  /// trace events directly instead.
  obs::LatencyTracker* lifecycle = nullptr;
  /// Per-node persistent store (storage/ledger_store.hpp); handed to the
  /// chain via Blockchain::attach_store. Null = no write-through.
  std::shared_ptr<storage::LedgerStore> store;
  /// Mempool byte-capacity fee market (ISSUE 10): lowest-fee-rate
  /// eviction and replacement once set. 0 = unlimited (historical).
  std::uint64_t mempool_capacity_bytes = 0;
};

/// Latency metrics a node records about its own submitted transactions.
struct TxTimings {
  Percentiles inclusion_latency;     // submit -> first on-chain
  Percentiles confirmation_latency;  // submit -> confirmation_depth deep
};

class ChainNode {
 public:
  ChainNode(net::Network& network, const ChainParams& params,
            const GenesisSpec& genesis, const NodeConfig& config, Rng rng,
            const std::vector<StakeAllocation>& stakes = {});

  net::NodeId id() const { return id_; }
  Blockchain& chain() { return chain_; }
  const Blockchain& chain() const { return chain_; }
  const crypto::KeyPair& wallet() const { return wallet_; }
  Rng& rng() { return rng_; }

  /// Starts the mining / proposing / voting loops.
  void start();

  /// Validates, pools and gossips a locally submitted transaction.
  Status submit_transaction(const UtxoTransaction& tx);
  Status submit_transaction(const AccountTransaction& tx);

  std::size_t mempool_size() const;
  /// Direct mempool access (admission-control wiring + tests): the
  /// cluster installs evict handlers here and benches read occupancy.
  UtxoMempool& utxo_pool() { return utxo_pool_; }
  AccountMempool& account_pool() { return account_pool_; }
  const TxTimings& timings() const { return timings_; }
  std::uint64_t blocks_mined() const { return blocks_mined_; }
  ValidatorSet& validators() { return validators_; }
  FinalityGadget* finality() { return finality_.get(); }

 private:
  void handle_message(const net::Message& msg);
  void accept_block(const Block& block, net::NodeId from);
  /// Backfill: ask `peer` for a block we are missing (orphan parents).
  void request_block(net::NodeId peer, const BlockHash& hash);
  void serve_block(net::NodeId peer, const BlockHash& hash);

  // -- PoW mining ---------------------------------------------------------
  void schedule_mining();
  void mine_block();
  Block assemble_block(double timestamp, std::uint64_t slot);

  // -- PoS proposing / voting ----------------------------------------------
  void schedule_slot();
  void run_slot(std::uint64_t slot);
  void maybe_vote_checkpoint();
  void handle_vote(const CheckpointVote& vote);
  /// Whole-block equivocation: same proposer, same slot, different blocks
  /// (paper §III-A2: "if an incorrect block is submitted, the validator's
  /// stake is burned").
  void detect_proposer_equivocation(const Block& block);

  void on_block_connected(const Block& block);
  void on_block_disconnected(const Block& block);

  net::Network& net_;
  net::NodeId id_;
  ChainParams params_;
  Blockchain chain_;
  crypto::KeyPair wallet_;
  NodeConfig config_;
  Rng rng_;

  UtxoMempool utxo_pool_;
  AccountMempool account_pool_;

  // PoS state (replicated deterministically on every node).
  ValidatorSet validators_;
  std::unique_ptr<FinalityGadget> finality_;
  std::unordered_map<std::uint64_t, BlockHash> seen_slot_blocks_;
  std::uint64_t last_voted_epoch_ = 0;

  sim::EventId mining_event_ = sim::kInvalidEvent;
  std::uint64_t blocks_mined_ = 0;

  // Local transaction latency tracking.
  std::unordered_map<Hash256, double> submit_time_;
  std::unordered_map<Hash256, double> include_time_;
  TxTimings timings_;

  // Cached registry metrics (null when no probe is attached).
  obs::Counter* obs_blocks_mined_ = nullptr;
  obs::Counter* obs_blocks_received_ = nullptr;
  obs::Counter* obs_blocks_rejected_ = nullptr;
  obs::Counter* obs_forks_opened_ = nullptr;
  obs::Counter* obs_reorgs_ = nullptr;
  obs::Counter* obs_votes_cast_ = nullptr;
  obs::Counter* obs_justified_ = nullptr;
  obs::Counter* obs_finalized_ = nullptr;
  obs::Histogram* profile_pow_ = nullptr;
};

}  // namespace dlt::chain
