// A Nano-style network participant (paper §II-B, §III-B, §IV-B, §V-B).
//
// Users order their own transactions ("a user in Nano must sort his/her
// own transactions", §VI-B); representatives vote automatically on new
// blocks and resolve forks by weighted election; receives are generated
// when the owner is online (Fig. 3); confirmed blocks are cemented.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "lattice/ledger.hpp"
#include "lattice/voting.hpp"
#include "net/network.hpp"
#include "obs/probe.hpp"
#include "support/flat_map.hpp"
#include "support/stats.hpp"

namespace dlt::obs {
class LatencyTracker;
}

namespace dlt::lattice {

/// Paper §V-B node taxonomy: historical nodes keep everything, current
/// nodes prune to chain heads, light nodes hold no ledger at all.
enum class NodeRole { kHistorical, kCurrent, kLight };

struct LatticeNodeConfig {
  NodeRole role = NodeRole::kHistorical;
  /// Solve the anti-spam hashcash for real when creating blocks.
  bool solve_work = true;
  /// Offline nodes do not auto-generate receives (Fig. 3: "a node has to
  /// be online in order to receive a transaction").
  bool online = true;
  /// Delay between observing an incoming pending send and publishing the
  /// matching receive block.
  double receive_delay = 0.2;
  /// kCurrent nodes prune this often (simulated seconds; 0 = never).
  double prune_interval = 60.0;
  /// Frontier-sync period: the node offers its account heads to one
  /// random neighbour this often, pulling/pushing whatever differs
  /// (Nano's frontier request / bulk pull; heals partitions). 0 = off.
  double frontier_interval = 10.0;
  /// Signature-verification cache for block and vote checks, usually
  /// shared across the whole cluster (crypto/sigcache.hpp). May be null.
  std::shared_ptr<crypto::SignatureCache> sigcache;
  /// Per-node persistent store (storage/ledger_store.hpp); handed to the
  /// ledger via Ledger::attach_store. Null = no write-through.
  std::shared_ptr<storage::LedgerStore> store;
  /// Observability hookup (cluster-owned registry + tracer). A default
  /// probe is inert; see obs/probe.hpp.
  obs::Probe probe;
  /// Cluster-owned transaction-lifecycle tracker (obs/latency.hpp); the
  /// first replica to observe vote quorum for a tracked block stamps its
  /// confirmation. Null = lifecycle tracking off.
  obs::LatencyTracker* lifecycle = nullptr;
};

/// Statistics on vote-based confirmation (paper §IV-B).
struct ConfirmationStats {
  Percentiles time_to_confirm;   // block first seen -> quorum reached
  std::uint64_t blocks_confirmed = 0;
  std::uint64_t blocks_cemented = 0;
  std::uint64_t elections_started = 0;
  std::uint64_t elections_lost_rollbacks = 0;  // blocks rolled back
};

class LatticeNode {
 public:
  LatticeNode(net::Network& network, const LatticeParams& params,
              const crypto::KeyPair& genesis_key, Amount supply,
              const LatticeNodeConfig& config, Rng rng);

  net::NodeId id() const { return id_; }
  Ledger& ledger() { return ledger_; }
  const Ledger& ledger() const { return ledger_; }
  const LatticeNodeConfig& config() const { return config_; }

  /// Registers a keypair this node controls (it will auto-receive for it).
  void add_account(const crypto::KeyPair& key);
  /// Makes this node's first controlled account a voting representative
  /// identity (other accounts delegate to it via their blocks).
  const crypto::KeyPair* representative_key() const;

  void start();
  void set_online(bool online) { config_.online = online; }

  // ---- User actions (§VI-B: users order their own transactions) ----------
  /// Builds, signs, works, applies and gossips a send block.
  Result<BlockHash> send(const crypto::KeyPair& from,
                         const crypto::AccountId& to, Amount amount);
  /// Claims one pending send for a controlled account (receive or open).
  Result<BlockHash> receive_pending(const crypto::KeyPair& key,
                                    const BlockHash& send_hash);
  /// Re-delegates an account's representative.
  Result<BlockHash> change_representative(const crypto::KeyPair& key,
                                          const crypto::AccountId& new_rep);

  /// Injects a locally built block (tests / malicious scenarios).
  Status publish(const LatticeBlock& block);

  // ---- Confirmation queries (§IV-B) ---------------------------------------
  bool is_confirmed(const BlockHash& hash) const;
  const ConfirmationStats& confirmations() const { return conf_stats_; }
  std::size_t gap_pool_size() const;
  std::size_t active_elections() const { return elections_.size(); }

 private:
  void handle_message(const net::Message& msg);
  void handle_block(const LatticeBlock& block, net::NodeId from);
  void handle_vote(const Vote& vote);
  void process_block(const LatticeBlock& block,
                     net::NodeId from = net::kNoNode);
  /// Backfill: ask `peer` for a block we are missing (gap healing).
  void request_block(net::NodeId peer, const BlockHash& hash);
  void serve_block(net::NodeId peer, const BlockHash& hash);
  void after_applied(const LatticeBlock& block);
  void retry_gaps(const BlockHash& now_available);
  void start_or_join_election(const LatticeBlock& incoming);
  void schedule_revote(const Root& root);
  void finish_election(const Root& root);
  void vote_on(const LatticeBlock& block);
  void tally_confirmation(const BlockHash& hash, const Vote& vote);
  void maybe_auto_receive(const LatticeBlock& send_block);
  void schedule_prune();
  void schedule_frontier_sync();
  void send_frontiers(net::NodeId peer);
  void handle_frontiers(net::NodeId peer,
                        const std::vector<std::pair<crypto::AccountId,
                                                    BlockHash>>& frontiers);
  Result<BlockHash> build_and_publish(LatticeBlock block,
                                      const crypto::KeyPair& key);

  net::Network& net_;
  net::NodeId id_;
  LatticeNodeConfig config_;
  Ledger ledger_;
  Rng rng_;

  std::vector<crypto::KeyPair> accounts_;
  std::unordered_map<crypto::AccountId, std::size_t> account_index_;

  // Gap pools (paper §IV-B: a missing block stalls its successors).
  std::unordered_map<BlockHash, std::vector<LatticeBlock>> gap_previous_;
  std::unordered_map<BlockHash, std::vector<LatticeBlock>> gap_source_;

  // Conflict elections by root, plus candidate blocks by hash. Node-based
  // on purpose: each entry is a whole block and none is ever erased, and
  // finish_election() hands after_applied() a reference into it while the
  // gap retries insert more (DESIGN.md "Hash containers").
  std::unordered_map<Root, Election> elections_;
  std::unordered_map<BlockHash, LatticeBlock> candidates_;

  // Vote-weight tally per block for confirmation; votes arriving before
  // their block are buffered.
  support::FlatMap<BlockHash, support::FlatMap<crypto::AccountId, Amount>>
      confirmation_votes_;
  support::FlatSet<BlockHash> confirmed_;
  support::FlatMap<BlockHash, std::vector<Vote>> vote_buffer_;
  support::FlatMap<BlockHash, double> first_seen_;
  std::uint64_t vote_sequence_ = 1;

  ConfirmationStats conf_stats_;

  // Cached registry metrics (null when no probe is attached).
  obs::Counter* obs_blocks_received_ = nullptr;
  obs::Counter* obs_sends_ = nullptr;
  obs::Counter* obs_receives_ = nullptr;
  obs::Counter* obs_votes_cast_ = nullptr;
  obs::Counter* obs_confirmed_ = nullptr;
  obs::Counter* obs_elections_ = nullptr;
  obs::Histogram* profile_work_ = nullptr;
};

}  // namespace dlt::lattice
