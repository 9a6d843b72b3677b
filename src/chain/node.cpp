#include "chain/node.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/hashcash.hpp"
#include "obs/latency.hpp"
#include "obs/profile.hpp"
#include "support/log.hpp"

namespace dlt::chain {
namespace {

// Interned once at static init; per-message paths compare/copy uint32 ids.
const net::MsgType kMsgBlock = net::msg_type("block");
const net::MsgType kMsgUtxoTx = net::msg_type("tx-utxo");
const net::MsgType kMsgAccountTx = net::msg_type("tx-acct");
const net::MsgType kMsgVote = net::msg_type("ffg-vote");
const net::MsgType kMsgGetBlock = net::msg_type("get-block");
constexpr std::size_t kGetBlockBytes = 40;  // request: type tag + hash

}  // namespace

ChainNode::ChainNode(net::Network& network, const ChainParams& params,
                     const GenesisSpec& genesis, const NodeConfig& config,
                     Rng rng, const std::vector<StakeAllocation>& stakes)
    : net_(network),
      id_(network.add_node()),
      params_(params),
      chain_(params, genesis),
      wallet_(crypto::KeyPair::from_seed(config.wallet_seed)),
      config_(config),
      rng_(std::move(rng)) {
  for (const StakeAllocation& s : stakes)
    validators_.deposit(s.validator, s.pubkey, s.stake);
  if (params_.consensus == ConsensusKind::kProofOfStake) {
    finality_ = std::make_unique<FinalityGadget>(
        params_, validators_, chain_.at_height(0)->hash());
  }

  chain_.set_sigcache(config_.sigcache);
  chain_.set_metrics(config_.probe.metrics);
  if (config_.store) chain_.attach_store(config_.store);

  utxo_pool_.set_capacity(config_.mempool_capacity_bytes);
  account_pool_.set_capacity(config_.mempool_capacity_bytes);

  if (config_.probe) {
    obs_blocks_mined_ = config_.probe.counter("chain.blocks_mined");
    obs_blocks_received_ = config_.probe.counter("chain.blocks_received");
    obs_blocks_rejected_ = config_.probe.counter("chain.blocks_rejected");
    obs_forks_opened_ = config_.probe.counter("chain.forks_opened");
    obs_reorgs_ = config_.probe.counter("chain.reorgs");
    obs_votes_cast_ = config_.probe.counter("chain.votes_cast");
    obs_justified_ = config_.probe.counter("chain.checkpoints_justified");
    obs_finalized_ = config_.probe.counter("chain.checkpoints_finalized");
    if (config_.solve_pow)
      profile_pow_ = config_.probe.histogram("profile.pow_solve_us");
  }

  chain_.on_connect([this](const Block& b) { on_block_connected(b); });
  chain_.on_disconnect([this](const Block& b) { on_block_disconnected(b); });
  if (config_.probe) {
    chain_.on_reorg([this](std::uint32_t depth, std::uint32_t new_height) {
      obs::inc(obs_reorgs_);
      config_.probe.trace(net_.simulation().now(),
                          obs::EventType::kReorgApplied, id_, depth,
                          new_height);
    });
    chain_.on_side_chain([this](const Block& b) {
      obs::inc(obs_forks_opened_);
      config_.probe.trace(net_.simulation().now(), obs::EventType::kForkOpened,
                          id_, b.header.height, obs::trace_id(b.hash()));
    });
  }

  net_.set_handler(id_, [this](const net::Message& m) { handle_message(m); });
}

void ChainNode::start() {
  if (params_.consensus == ConsensusKind::kProofOfWork) {
    if (config_.hashrate > 0.0) schedule_mining();
  } else {
    schedule_slot();
  }
}

Status ChainNode::submit_transaction(const UtxoTransaction& tx) {
  Status st = utxo_pool_.add(tx, chain_.utxo_set(), chain_.height(),
                             config_.sigcache.get());
  if (!st.ok()) return st;
  submit_time_[tx.id()] = net_.simulation().now();
  net_.gossip(id_, net::make_message(kMsgUtxoTx, tx, tx.serialized_size()));
  return Status::success();
}

Status ChainNode::submit_transaction(const AccountTransaction& tx) {
  Status st = account_pool_.add(tx, chain_.world_state(),
                                config_.sigcache.get());
  if (!st.ok()) return st;
  submit_time_[tx.id()] = net_.simulation().now();
  net_.gossip(id_,
              net::make_message(kMsgAccountTx, tx, tx.serialized_size()));
  return Status::success();
}

std::size_t ChainNode::mempool_size() const {
  return params_.tx_model == TxModel::kUtxo ? utxo_pool_.size()
                                            : account_pool_.size();
}

void ChainNode::handle_message(const net::Message& msg) {
  if (msg.type == kMsgBlock) {
    accept_block(net::payload_as<Block>(msg), msg.from);
  } else if (msg.type == kMsgGetBlock) {
    serve_block(msg.from, net::payload_as<BlockHash>(msg));
  } else if (msg.type == kMsgUtxoTx) {
    (void)utxo_pool_.add(net::payload_as<UtxoTransaction>(msg),
                         chain_.utxo_set(), chain_.height(),
                         config_.sigcache.get());
  } else if (msg.type == kMsgAccountTx) {
    (void)account_pool_.add(net::payload_as<AccountTransaction>(msg),
                            chain_.world_state(), config_.sigcache.get());
  } else if (msg.type == kMsgVote) {
    handle_vote(net::payload_as<CheckpointVote>(msg));
  }
}

void ChainNode::accept_block(const Block& block, net::NodeId from) {
  if (params_.consensus == ConsensusKind::kProofOfStake)
    detect_proposer_equivocation(block);

  const BlockHash old_tip = chain_.tip_hash();
  auto res = chain_.submit(block);
  if (!res) {
    obs::inc(obs_blocks_rejected_);
    DLT_LOG_DEBUG("node %u rejected block: %s", id_,
                  res.error().to_string().c_str());
    return;
  }
  if (res->outcome != Accept::kDuplicate) {
    obs::inc(obs_blocks_received_);
    config_.probe.trace(net_.simulation().now(), obs::EventType::kBlockReceived,
                        id_, block.header.height, obs::trace_id(block.hash()));
  }
  // Orphan: the parent is missing locally -- backfill it from whoever
  // sent us this block (simplified headers-first sync).
  if (res->outcome == Accept::kOrphaned && from != net::kNoNode)
    request_block(from, block.header.parent);
  // A tip change restarts the mining race on the new parent (the
  // exponential clock is memoryless, so resampling is distribution-exact).
  if (chain_.tip_hash() != old_tip &&
      params_.consensus == ConsensusKind::kProofOfWork &&
      config_.hashrate > 0.0) {
    schedule_mining();
  }
}

void ChainNode::request_block(net::NodeId peer, const BlockHash& hash) {
  net_.send(id_, peer, net::make_message(kMsgGetBlock, hash, kGetBlockBytes));
}

void ChainNode::serve_block(net::NodeId peer, const BlockHash& hash) {
  auto block = chain_.full_block(hash);
  if (!block) return;  // unknown or pruned (§V-A)
  const std::size_t bytes =
      block->serialized_size() + params_.simulated_extra_block_bytes;
  net_.send(id_, peer, net::make_message(kMsgBlock, std::move(*block), bytes));
}

// ---------------------------------------------------------------------------
// PoW mining

void ChainNode::schedule_mining() {
  if (mining_event_ != sim::kInvalidEvent)
    net_.simulation().cancel(mining_event_);
  const double difficulty = chain_.next_difficulty(chain_.tip_hash());
  const double mean_solve = difficulty / config_.hashrate;
  const double delay = rng_.exponential(mean_solve);
  mining_event_ = net_.simulation().schedule_in(delay, [this] {
    mining_event_ = sim::kInvalidEvent;
    mine_block();
  });
}

void ChainNode::mine_block() {
  Block block = assemble_block(net_.simulation().now(), /*slot=*/0);

  if (config_.solve_pow) {
    // Real partial hash inversion against the fractional target.
    obs::ProfileTimer timer(profile_pow_);
    std::uint64_t nonce = rng_.next();
    for (;; ++nonce) {
      block.header.nonce = nonce;
      if (meets_target(block.header.pow_digest(), block.header.difficulty))
        break;
    }
  } else {
    block.header.nonce = rng_.next();
  }

  ++blocks_mined_;
  auto res = chain_.submit(block);
  if (!res) {
    DLT_LOG_WARN("node %u mined invalid block: %s", id_,
                 res.error().to_string().c_str());
  } else {
    obs::inc(obs_blocks_mined_);
    config_.probe.trace(net_.simulation().now(), obs::EventType::kBlockMined,
                        id_, block.header.height, block.tx_count());
    net_.gossip(id_,
                net::make_message(kMsgBlock, block,
                                  block.serialized_size() +
                                      params_.simulated_extra_block_bytes));
  }
  schedule_mining();
}

Block ChainNode::assemble_block(double timestamp, std::uint64_t slot) {
  Block block;
  block.header.height = chain_.height() + 1;
  block.header.parent = chain_.tip_hash();
  block.header.timestamp =
      std::max(timestamp, chain_.find(chain_.tip_hash())->header.timestamp);
  block.header.difficulty = chain_.next_difficulty(chain_.tip_hash());
  block.header.proposer = wallet_.account_id();
  block.header.slot = slot;

  if (params_.tx_model == TxModel::kUtxo) {
    const std::uint64_t budget =
        params_.max_block_bytes > 0
            ? params_.max_block_bytes - block.header.serialized_size() - 60
            : 0;
    UtxoTxList txs = utxo_pool_.select(budget);
    Amount fees = 0;
    for (const auto& tx : txs) {
      auto fee = chain_.utxo_set().check_transaction(tx, block.header.height,
                                                     config_.sigcache.get());
      if (fee) fees += *fee;
    }
    txs.insert(txs.begin(),
               UtxoTransaction::coinbase(wallet_.account_id(),
                                         params_.block_reward + fees,
                                         block.header.height));
    block.txs = std::move(txs);
  } else {
    AccountTxList txs =
        account_pool_.select(params_.block_gas_limit, chain_.world_state());
    auto root = chain_.compute_state_root(txs, wallet_.account_id());
    if (!root) {
      // A stale mempool entry slipped in; rebuild with none (rare).
      txs.clear();
      root = chain_.compute_state_root(txs, wallet_.account_id());
      assert(root);
    }
    block.header.state_root = *root;
    block.txs = std::move(txs);
  }
  block.header.merkle_root = block.compute_merkle_root();
  return block;
}

// ---------------------------------------------------------------------------
// PoS

void ChainNode::schedule_slot() {
  const double now = net_.simulation().now();
  const auto current_slot =
      static_cast<std::uint64_t>(now / params_.block_interval);
  const double next_time =
      static_cast<double>(current_slot + 1) * params_.block_interval;
  net_.simulation().schedule_at(next_time, [this, current_slot] {
    run_slot(current_slot + 1);
    schedule_slot();
  });
}

void ChainNode::run_slot(std::uint64_t slot) {
  const Hash256 seed = chain_.at_height(0)->hash();
  auto proposer = validators_.proposer_for_slot(seed, slot);
  if (!proposer) return;
  if (*proposer == wallet_.account_id()) {
    Block block = assemble_block(net_.simulation().now(), slot);
    ++blocks_mined_;
    auto res = chain_.submit(block);
    if (res) {
      obs::inc(obs_blocks_mined_);
      config_.probe.trace(net_.simulation().now(), obs::EventType::kBlockMined,
                          id_, block.header.height, block.tx_count());
      net_.gossip(id_,
                  net::make_message(kMsgBlock, block,
                                    block.serialized_size() +
                                        params_.simulated_extra_block_bytes));
    }
  }
  maybe_vote_checkpoint();
}

void ChainNode::maybe_vote_checkpoint() {
  if (!finality_) return;
  if (validators_.stake_of(wallet_.account_id()) == 0) return;

  const std::uint64_t epoch = chain_.height() / params_.epoch_length;
  if (epoch == 0 || epoch <= last_voted_epoch_) return;

  const std::uint32_t checkpoint_height =
      static_cast<std::uint32_t>(epoch * params_.epoch_length);
  const Block* target = chain_.at_height(checkpoint_height);
  if (!target) return;

  CheckpointVote vote;
  vote.source_epoch = finality_->last_justified_epoch();
  vote.source_hash = finality_->last_justified_hash();
  vote.target_epoch = epoch;
  vote.target_hash = target->hash();
  vote.sign(wallet_, rng_);
  last_voted_epoch_ = epoch;

  obs::inc(obs_votes_cast_);
  config_.probe.trace(net_.simulation().now(), obs::EventType::kVoteCast, id_,
                      epoch, obs::trace_id(vote.target_hash));

  handle_vote(vote);  // count own vote locally
  net_.gossip(id_, net::make_message(kMsgVote, vote,
                                     CheckpointVote::kSerializedSize));
}

void ChainNode::handle_vote(const CheckpointVote& vote) {
  if (!finality_) return;
  auto outcome = finality_->process_vote(vote);
  if (!outcome) return;
  if (outcome->justified_target) {
    obs::inc(obs_justified_);
    config_.probe.trace(net_.simulation().now(),
                        obs::EventType::kQuorumReached, id_, vote.target_epoch,
                        obs::trace_id(vote.target_hash));
  }
  if (outcome->finalized_source) {
    obs::inc(obs_finalized_);
    // Non-reversible checkpoint (paper §IV-A): lock fork choice below it.
    (void)chain_.finalize(finality_->last_finalized_hash());
  }
}

void ChainNode::detect_proposer_equivocation(const Block& block) {
  if (block.header.slot == 0) return;
  auto [it, inserted] =
      seen_slot_blocks_.emplace(block.header.slot, block.hash());
  if (!inserted && it->second != block.hash()) {
    const Amount burned = validators_.slash(block.header.proposer);
    if (burned > 0)
      DLT_LOG_INFO("node %u slashed equivocating proposer (%llu stake)", id_,
                   static_cast<unsigned long long>(burned));
  }
}

// ---------------------------------------------------------------------------
// Chain event hooks

void ChainNode::on_block_connected(const Block& block) {
  const double now = net_.simulation().now();

  if (block.is_utxo())
    utxo_pool_.remove_included(block.utxo_txs());
  else
    account_pool_.remove_included(block.account_txs());

  // Inclusion latency for our own transactions. Engine-tracked
  // transactions stamp through the lifecycle tracker (which emits the
  // same tx_included event); directly-submitted ones (tests, attack
  // harnesses) keep the historical emission.
  auto record_inclusion = [&](const Hash256& id) {
    auto it = submit_time_.find(id);
    if (it == submit_time_.end()) return;
    if (!include_time_.count(id)) {
      include_time_[id] = now;
      timings_.inclusion_latency.add(now - it->second);
      const std::uint64_t id64 = obs::trace_id(id);
      if (!config_.lifecycle ||
          !config_.lifecycle->on_include(id64, now, id_,
                                         block.header.height))
        config_.probe.trace(now, obs::EventType::kTxIncluded, id_, id64,
                            block.header.height);
    }
  };
  if (block.is_utxo())
    for (const auto& tx : block.utxo_txs()) record_inclusion(tx.id());
  else
    for (const auto& tx : block.account_txs()) record_inclusion(tx.id());

  // Confirmation latency: the block that just became `confirmation_depth`
  // deep is now confirmed (paper §IV-A's depth rule).
  if (chain_.height() + 1 >= params_.confirmation_depth) {
    const std::uint32_t confirmed_h =
        chain_.height() + 1 - params_.confirmation_depth;
    const Block* confirmed = chain_.at_height(confirmed_h);
    if (confirmed) {
      auto record_confirm = [&](const Hash256& id) {
        auto it = submit_time_.find(id);
        if (it == submit_time_.end()) return;
        timings_.confirmation_latency.add(now - it->second);
        submit_time_.erase(it);
        include_time_.erase(id);
        const std::uint64_t id64 = obs::trace_id(id);
        if (!config_.lifecycle ||
            !config_.lifecycle->on_confirm(id64, now, id_, confirmed_h))
          config_.probe.trace(now, obs::EventType::kTxConfirmed, id_, id64,
                              confirmed_h);
      };
      if (confirmed->is_utxo())
        for (const auto& tx : confirmed->utxo_txs()) record_confirm(tx.id());
      else
        for (const auto& tx : confirmed->account_txs())
          record_confirm(tx.id());
    }
  }
}

void ChainNode::on_block_disconnected(const Block& block) {
  // Orphaned transactions return to the mempool to be re-included
  // (paper §IV-A).
  if (block.is_utxo())
    utxo_pool_.reinject(block.utxo_txs(), chain_.utxo_set(), chain_.height(),
                        config_.sigcache.get());
  else
    account_pool_.reinject(block.account_txs(), chain_.world_state(),
                           config_.sigcache.get());

  // Their inclusion no longer stands.
  auto unrecord = [&](const Hash256& id) {
    if (include_time_.erase(id) && config_.lifecycle)
      config_.lifecycle->on_uninclude(obs::trace_id(id));
  };
  if (block.is_utxo())
    for (const auto& tx : block.utxo_txs()) unrecord(tx.id());
  else
    for (const auto& tx : block.account_txs()) unrecord(tx.id());
}

}  // namespace dlt::chain
