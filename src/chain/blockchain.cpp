#include "chain/blockchain.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <map>
#include <unordered_set>

#include "chain/codec.hpp"
#include "obs/profile.hpp"
#include "support/hex.hpp"
#include "support/log.hpp"
#include "support/serialize.hpp"

namespace dlt::chain {

namespace {

/// State-backend key for an outpoint: the funding txid with the output
/// index folded into the leading bytes.
Hash256 outpoint_key(const Outpoint& op) {
  Hash256 key = op.txid;
  key[0] ^= static_cast<Byte>(op.index);
  key[1] ^= static_cast<Byte>(op.index >> 8);
  key[2] ^= static_cast<Byte>(op.index >> 16);
  key[3] ^= static_cast<Byte>(op.index >> 24);
  return key;
}

/// Storage value for a chainstate outpoint entry.
Bytes encode_txout(const TxOut& out) {
  Writer w;
  w.u64(out.value);
  w.fixed(out.owner);
  return std::move(w).take();
}

/// Trie keys come back as nibble sequences; fold them into the AccountId.
crypto::AccountId nibbles_to_account(const crypto::Nibbles& nibbles) {
  crypto::AccountId id;
  for (std::size_t i = 0; i + 1 < nibbles.size() && i / 2 < 32; i += 2)
    id[i / 2] = static_cast<Byte>((nibbles[i] << 4) | nibbles[i + 1]);
  return id;
}

/// Accounts a connected account-model block touches, in deterministic
/// first-seen order: the proposer (fees + reward), then each tx's sender
/// and recipient (the derived contract account for creations).
std::vector<crypto::AccountId> touched_accounts(const Block& block) {
  std::vector<crypto::AccountId> out;
  std::unordered_set<crypto::AccountId> seen;
  const auto add = [&](const crypto::AccountId& id) {
    if (seen.insert(id).second) out.push_back(id);
  };
  add(block.header.proposer);
  for (const AccountTransaction& tx : block.account_txs()) {
    add(tx.from);
    add(tx.is_contract_creation() ? static_cast<crypto::AccountId>(tx.id())
                                  : tx.to);
  }
  return out;
}

}  // namespace

Block make_genesis_block(const ChainParams& params, const GenesisSpec& spec) {
  Block genesis;
  genesis.header.height = 0;
  genesis.header.timestamp = spec.timestamp;
  genesis.header.difficulty = params.initial_difficulty;

  if (params.tx_model == TxModel::kUtxo) {
    // The initial state is one mint transaction paying every allocation.
    UtxoTransaction mint;
    for (const auto& [account, amount] : spec.allocations)
      mint.outputs.push_back(TxOut{amount, account});
    genesis.txs = UtxoTxList{std::move(mint)};
  } else {
    genesis.txs = AccountTxList{};
    WorldState state;
    for (const auto& [account, amount] : spec.allocations)
      state = state.credit(account, amount);
    genesis.header.state_root = state.root();
  }
  genesis.header.merkle_root = genesis.compute_merkle_root();
  return genesis;
}

Blockchain::Blockchain(ChainParams params, GenesisSpec genesis)
    : params_(std::move(params)) {
  Block g = make_genesis_block(params_, genesis);
  const BlockHash gh = g.hash();

  Record rec;
  rec.block = g;
  rec.hash = gh;
  rec.total_work = block_work(g.header.difficulty);

  if (params_.tx_model == TxModel::kUtxo) {
    for (const auto& tx : rec.block.utxo_txs()) {
      tx_index_[tx.id()] = gh;
      rec.undo.txs.push_back(utxo_.apply_transaction(tx));
    }
  } else {
    WorldState state;
    for (const auto& [account, amount] : genesis.allocations)
      state = state.credit(account, amount);
    state_ = state;
    state_db_.put(state.root(), state);
  }

  index_.emplace(gh, std::move(rec));
  active_.push_back(gh);
}

Blockchain::Record* Blockchain::find_record(const BlockHash& hash) {
  auto it = index_.find(hash);
  return it == index_.end() ? nullptr : &it->second;
}

const Blockchain::Record* Blockchain::find_record(
    const BlockHash& hash) const {
  auto it = index_.find(hash);
  return it == index_.end() ? nullptr : &it->second;
}

const Block* Blockchain::find(const BlockHash& hash) const {
  const Record* rec = find_record(hash);
  return rec ? &rec->block : nullptr;
}

bool Blockchain::body_pruned(const BlockHash& hash) const {
  const Record* rec = find_record(hash);
  return rec != nullptr && rec->body_pruned;
}

const Block* Blockchain::at_height(std::uint32_t h) const {
  if (h >= active_.size()) return nullptr;
  return find(active_[h]);
}

bool Blockchain::on_active_chain(const BlockHash& hash) const {
  const Record* rec = find_record(hash);
  if (!rec) return false;
  const std::uint32_t h = rec->block.header.height;
  return h < active_.size() && active_[h] == hash;
}

double Blockchain::total_work() const {
  return find_record(active_.back())->total_work;
}

std::uint32_t Blockchain::confirmations(const TxId& txid) const {
  auto h = tx_height(txid);
  if (!h) return 0;
  return height() - *h + 1;
}

std::optional<std::uint32_t> Blockchain::tx_height(const TxId& txid) const {
  auto it = tx_index_.find(txid);
  if (it == tx_index_.end()) return std::nullopt;
  const Record* rec = find_record(it->second);
  if (!rec) return std::nullopt;
  const std::uint32_t h = rec->block.header.height;
  if (h >= active_.size() || active_[h] != it->second) return std::nullopt;
  return h;
}

double Blockchain::next_difficulty(const BlockHash& parent_hash) const {
  const Record* parent = find_record(parent_hash);
  assert(parent && "next_difficulty of unknown parent");
  if (params_.consensus == ConsensusKind::kProofOfStake) return 1.0;

  const std::uint32_t h_next = parent->block.header.height + 1;
  const std::uint32_t window = params_.retarget_window;
  if (window == 0 || h_next % window != 0)
    return parent->block.header.difficulty;

  std::uint32_t anc_height;
  std::uint32_t intervals;
  if (window == 1) {
    // Per-block adjustment (Ethereum-style): last observed interval.
    if (parent->block.header.height < 1)
      return parent->block.header.difficulty;
    anc_height = parent->block.header.height - 1;
    intervals = 1;
  } else {
    if (h_next < window) return parent->block.header.difficulty;
    anc_height = h_next - window;
    intervals = window - 1;
    if (intervals == 0) return parent->block.header.difficulty;
  }

  const Record* anc = parent;
  while (anc->block.header.height > anc_height) {
    anc = find_record(anc->block.header.parent);
    assert(anc && "broken parent linkage");
  }
  const double span =
      parent->block.header.timestamp - anc->block.header.timestamp;
  return retarget_difficulty(params_, parent->block.header.difficulty, span,
                             intervals);
}

Status Blockchain::check_stateless(const Block& block) const {
  const bool expects_utxo = params_.tx_model == TxModel::kUtxo;
  if (block.is_utxo() != expects_utxo)
    return make_error("wrong-tx-model");
  if (block.header.parent.is_zero())
    return make_error("duplicate-genesis", "non-genesis with zero parent");
  if (block.compute_merkle_root() != block.header.merkle_root)
    return make_error("bad-merkle-root");
  if (params_.max_block_bytes > 0 &&
      block.serialized_size() > params_.max_block_bytes)
    return make_error("oversize-block");
  if (!block.is_utxo() && params_.block_gas_limit > 0 &&
      block.total_gas() > params_.block_gas_limit)
    return make_error("gas-limit-exceeded");
  if (block.is_utxo()) {
    const auto& txs = block.utxo_txs();
    if (txs.empty() || !txs.front().is_coinbase())
      return make_error("missing-coinbase");
    for (std::size_t i = 1; i < txs.size(); ++i)
      if (txs[i].is_coinbase())
        return make_error("multiple-coinbase");
  }
  return Status::success();
}

Status Blockchain::check_contextual(const Block& block,
                                    const Record& parent) const {
  if (block.header.height != parent.block.header.height + 1)
    return make_error("bad-height");
  if (block.header.timestamp + 1e-9 < parent.block.header.timestamp)
    return make_error("timestamp-regression");
  const double expected = next_difficulty(parent.hash);
  if (std::abs(block.header.difficulty - expected) >
      1e-9 * std::max(1.0, expected))
    return make_error("bad-difficulty");
  if (params_.verify_pow &&
      params_.consensus == ConsensusKind::kProofOfWork &&
      !meets_target(block.header.pow_digest(), block.header.difficulty))
    return make_error("bad-pow", "hash does not meet target");
  return Status::success();
}

void Blockchain::set_metrics(obs::MetricsRegistry* metrics) {
  profile_connect_ =
      metrics ? &metrics->histogram("profile.connect_block_us") : nullptr;
}

Status Blockchain::connect_block(Record& rec) {
  const Block& block = rec.block;
  obs::ProfileTimer timer(profile_connect_);
  const Status st = block.is_utxo() ? connect_utxo(rec) : connect_account(rec);
  if (!st.ok()) return st;

  persist_connect(rec);
  for (const auto& hook : connect_hooks_) hook(block);
  return Status::success();
}

Status Blockchain::connect_utxo(Record& rec) {
  const Block& block = rec.block;
  const std::uint32_t h = block.header.height;
  const auto& txs = block.utxo_txs();
  Amount fees = 0;
  rec.undo.txs.clear();
  std::size_t applied = 0;
  Status failure = Status::success();
  for (std::size_t i = 1; i < txs.size(); ++i) {
    auto fee = utxo_.check_transaction(txs[i], h, sigcache_.get());
    if (!fee) {
      failure = fee.error();
      break;
    }
    fees += *fee;
    rec.undo.txs.push_back(utxo_.apply_transaction(txs[i]));
    ++applied;
  }
  if (failure.ok()) {
    // Coinbase may claim at most subsidy + fees (checked after fees are
    // known; applied last but serialized first, as in Bitcoin).
    if (txs.front().total_output() > params_.block_reward + fees)
      failure = make_error("coinbase-inflation");
  }
  if (!failure.ok()) {
    for (std::size_t i = applied; i-- > 0;)
      utxo_.revert_transaction(rec.undo.txs[i]);
    rec.undo.txs.clear();
    rec.state_valid = false;
    return failure;
  }
  // Apply the coinbase and move its undo to the front (block order).
  TxUndo cb_undo = utxo_.apply_transaction(txs.front());
  rec.undo.txs.insert(rec.undo.txs.begin(), std::move(cb_undo));
  for (const auto& tx : txs) tx_index_[tx.id()] = rec.hash;
  return Status::success();
}

Status Blockchain::connect_account(Record& rec) {
  const Block& block = rec.block;
  WorldState state = state_;
  const auto& txs = block.account_txs();
  for (std::size_t i = 0; i < txs.size(); ++i) {
    auto next = state.apply_transaction(txs[i], block.header.proposer, gas_,
                                        sigcache_.get());
    if (!next) {
      rec.state_valid = false;
      return next.error();
    }
    state = std::move(*next);
  }
  if (params_.block_reward > 0)
    state = state.credit(block.header.proposer, params_.block_reward);
  if (state.root() != block.header.state_root) {
    rec.state_valid = false;
    return make_error("bad-state-root");
  }
  state_db_.put(state.root(), state);
  state_ = std::move(state);
  for (const auto& tx : block.account_txs()) tx_index_[tx.id()] = rec.hash;
  return Status::success();
}

void Blockchain::disconnect_tip() {
  assert(active_.size() > 1 && "cannot disconnect genesis");
  Record* rec = find_record(active_.back());
  assert(rec);
  const Block& block = rec->block;

  if (block.is_utxo()) {
    const auto& txs = block.utxo_txs();
    assert(rec->undo.txs.size() == txs.size());
    for (std::size_t i = txs.size(); i-- > 0;)
      utxo_.revert_transaction(rec->undo.txs[i]);
    for (const auto& tx : txs) tx_index_.erase(tx.id());
    persist_disconnect(*rec);  // needs the undo record; clear after
    rec->undo.txs.clear();
  } else {
    const Record* parent = find_record(block.header.parent);
    assert(parent);
    auto prev = state_db_.get(parent->block.header.state_root);
    assert(prev && "reorg past pruned state (increase keep window)");
    state_ = std::move(*prev);
    for (const auto& tx : block.account_txs()) tx_index_.erase(tx.id());
    persist_disconnect(*rec);
  }

  for (const auto& hook : disconnect_hooks_) hook(block);
  active_.pop_back();
}

Result<std::uint32_t> Blockchain::adopt_branch(const BlockHash& candidate) {
  // Collect the candidate branch back to the active chain.
  std::vector<Record*> branch;
  Record* walk = find_record(candidate);
  while (walk && !on_active_chain(walk->hash)) {
    branch.push_back(walk);
    walk = find_record(walk->block.header.parent);
  }
  if (!walk) return make_error("detached-branch");
  std::reverse(branch.begin(), branch.end());

  const std::uint32_t fork_height = walk->block.header.height;
  if (fork_height < finalized_height_)
    return make_error("finality-violation",
                      "branch forks below the finalized checkpoint");
  if (fork_height < pruned_below_)
    return make_error("pruned-fork-point",
                      "cannot reorg into pruned history");

  // Disconnect down to the fork point, remembering what we removed so a
  // failed branch can be rolled back.
  std::vector<BlockHash> removed;
  while (height() > fork_height) {
    removed.push_back(active_.back());
    disconnect_tip();
  }

  std::size_t connected = 0;
  Status failure = Status::success();
  for (Record* rec : branch) {
    if (!rec->state_valid) {
      failure = make_error("invalid-ancestor");
      break;
    }
    Status st = connect_block(*rec);
    if (!st.ok()) {
      failure = st;
      break;
    }
    active_.push_back(rec->hash);
    ++connected;
  }

  if (!failure.ok()) {
    // Unwind the partial branch and restore the original chain.
    while (connected-- > 0) disconnect_tip();
    for (std::size_t i = removed.size(); i-- > 0;) {
      Record* rec = find_record(removed[i]);
      assert(rec);
      Status st = connect_block(*rec);
      assert(st.ok() && "restoring previously valid chain must succeed");
      (void)st;
      active_.push_back(rec->hash);
    }
    return failure.error();
  }

  const auto depth = static_cast<std::uint32_t>(removed.size());
  fork_stats_.reorgs += 1;
  fork_stats_.blocks_disconnected += depth;
  fork_stats_.max_reorg_depth = std::max(fork_stats_.max_reorg_depth, depth);
  if (reorg_hook_) reorg_hook_(depth, height());
  return depth;
}

Result<AcceptResult> Blockchain::submit(const Block& block) {
  const BlockHash hash = block.hash();
  if (index_.count(hash)) return AcceptResult{Accept::kDuplicate, 0};

  Status st = check_stateless(block);
  if (!st.ok()) return st.error();

  Record* parent = find_record(block.header.parent);
  if (!parent) {
    orphans_[block.header.parent].push_back(block);
    return AcceptResult{Accept::kOrphaned, 0};
  }
  if (!parent->state_valid)
    return make_error("invalid-ancestor", "parent failed state validation");

  st = check_contextual(block, *parent);
  if (!st.ok()) return st.error();

  Record rec;
  rec.block = block;
  rec.hash = hash;
  rec.total_work = parent->total_work + block_work(block.header.difficulty);
  auto [it, inserted] = index_.emplace(hash, std::move(rec));
  assert(inserted);
  Record& stored = it->second;
  // Persist at admission: side-chain blocks count toward §V storage too,
  // and a block that later fails connection stays in the index.
  persist_block(stored);

  AcceptResult result;
  if (block.header.parent == tip_hash()) {
    Status cs = connect_block(stored);
    if (!cs.ok()) return cs.error();
    active_.push_back(hash);
    result = AcceptResult{Accept::kConnected, 0};
  } else if (stored.total_work > total_work()) {
    auto depth = adopt_branch(hash);
    if (!depth) return depth.error();
    result = AcceptResult{Accept::kReorged, *depth};
  } else {
    fork_stats_.side_chain_blocks += 1;
    if (side_chain_hook_) side_chain_hook_(block);
    result = AcceptResult{Accept::kSideChain, 0};
  }

  process_orphans(hash);
  return result;
}

void Blockchain::process_orphans(const BlockHash& parent) {
  std::deque<BlockHash> ready{parent};
  while (!ready.empty()) {
    const BlockHash next = ready.front();
    ready.pop_front();
    auto it = orphans_.find(next);
    if (it == orphans_.end()) continue;
    std::vector<Block> blocks = std::move(it->second);
    orphans_.erase(it);
    for (const Block& b : blocks) {
      auto res = submit(b);
      if (res && res->outcome != Accept::kOrphaned) ready.push_back(b.hash());
    }
  }
}

Status Blockchain::finalize(const BlockHash& hash) {
  const Record* rec = find_record(hash);
  if (!rec) return make_error("unknown-block");
  if (!on_active_chain(hash))
    return make_error("not-active", "cannot finalize an off-chain block");
  finalized_height_ =
      std::max(finalized_height_, rec->block.header.height);
  return Status::success();
}

Result<Hash256> Blockchain::compute_state_root(
    const AccountTxList& txs, const crypto::AccountId& proposer) const {
  assert(params_.tx_model == TxModel::kAccount);
  WorldState state = state_;
  for (const auto& tx : txs) {
    auto next = state.apply_transaction(tx, proposer, gas_, sigcache_.get());
    if (!next) return next.error();
    state = std::move(*next);
  }
  if (params_.block_reward > 0)
    state = state.credit(proposer, params_.block_reward);
  return state.root();
}

std::uint64_t Blockchain::prune_bodies(std::uint32_t keep_depth) {
  if (height() <= keep_depth) return 0;
  const std::uint32_t cutoff = height() - keep_depth;
  std::uint64_t reclaimed = 0;
  std::vector<BlockHash> pruned;
  for (auto& [hash, rec] : index_) {
    if (rec.body_pruned) continue;
    if (rec.block.header.height >= cutoff) continue;
    const std::size_t body =
        rec.offloaded_body_bytes
            ? rec.offloaded_body_bytes
            : rec.block.serialized_size() - rec.block.header.serialized_size();
    reclaimed += body;
    rec.offloaded_body_bytes = 0;
    // Undo data of deep blocks is discarded with the body.
    for (const auto& undo : rec.undo.txs)
      reclaimed += undo.spent.size() * 76;
    rec.undo.txs.clear();
    if (rec.block.is_utxo())
      rec.block.txs = UtxoTxList{};
    else
      rec.block.txs = AccountTxList{};
    rec.body_pruned = true;
    pruned.push_back(hash);
  }
  pruned_below_ = std::max(pruned_below_, cutoff);
  if (store_ && !pruned.empty()) {
    for (const BlockHash& hash : pruned)
      store_->log().erase(storage::RecordType::kBody, hash);
    store_->note_pruned(store_->log().compact());
    store_->commit();
  }
  return reclaimed;
}

std::size_t Blockchain::prune_states(std::uint32_t keep_depth) {
  if (params_.tx_model != TxModel::kAccount) return 0;
  std::vector<Hash256> keep;
  const std::uint32_t from =
      height() > keep_depth ? height() - keep_depth : 0;
  for (std::uint32_t h = from; h <= height(); ++h)
    keep.push_back(find(active_[h])->header.state_root);
  const std::size_t reclaimed = state_db_.prune_except(keep);
  if (store_) {
    // Mirror the state-delta pruning discipline in the log: drop kDelta
    // records for blocks outside the kept window of the active chain.
    std::unordered_set<BlockHash> kept;
    for (std::uint32_t h = from; h <= height(); ++h) kept.insert(active_[h]);
    bool erased = false;
    for (const auto& [hash, rec] : index_)
      if (!kept.count(hash))
        erased |= store_->log().erase(storage::RecordType::kDelta, hash);
    if (erased) {
      store_->note_pruned(store_->log().compact());
      store_->commit();
    }
  }
  return reclaimed;
}

Blockchain::StorageBreakdown Blockchain::storage() const {
  StorageBreakdown s;
  for (const auto& [hash, rec] : index_) {
    s.headers += rec.block.header.serialized_size();
    if (rec.offloaded_body_bytes)
      s.bodies += rec.offloaded_body_bytes;  // on disk, still part of §V
    else if (!rec.body_pruned)
      s.bodies += rec.block.serialized_size() -
                  rec.block.header.serialized_size();
    for (const auto& undo : rec.undo.txs)
      s.undo_data += undo.spent.size() * 76 + undo.created.size() * 36;
  }
  if (params_.tx_model == TxModel::kUtxo) {
    s.chainstate = utxo_.stored_bytes();
  } else {
    s.state_history = state_db_.measure().second;
    std::uint64_t txs_on_chain = 0;
    for (const BlockHash& h : active_) {
      const Record* rec = find_record(h);
      if (!rec->body_pruned) txs_on_chain += rec->block.tx_count();
    }
    s.receipts = txs_on_chain * params_.receipt_bytes_per_tx;
  }
  return s;
}

void Blockchain::attach_store(std::shared_ptr<storage::LedgerStore> store) {
  store_ = std::move(store);
  if (!store_) return;
  const BlockHash gh = active_.front();
  const Record& genesis = *find_record(gh);
  if (!store_->log().contains(storage::RecordType::kHeader, gh)) {
    persist_block(genesis);
    if (params_.tx_model == TxModel::kUtxo) {
      persist_connect(genesis);
    } else {
      // Seed the state backend with the genesis allocations. The trie key
      // is the nibble-expanded AccountId and the leaf value is the encoded
      // AccountState — exactly what persist_connect writes per block.
      state_.trie().for_each(
          [&](const crypto::Nibbles& key, const Bytes& value) {
            store_->state().put(nibbles_to_account(key), value);
          });
    }
  }
  store_->commit();
}

void Blockchain::persist_block(const Record& rec) {
  if (!store_) return;
  auto& log = store_->log();
  // Already logged: a reorg rollback or a replayed submit re-offers blocks
  // the log holds; re-appending would upsert dead bytes nondeterministically
  // between clean and recovered runs.
  if (log.contains(storage::RecordType::kHeader, rec.hash)) return;
  log.append(storage::RecordType::kHeader, rec.hash,
             encode_header_record(rec.block.header));
  log.append(storage::RecordType::kBody, rec.hash,
             encode_body_record(rec.block));
  store_->commit();
}

void Blockchain::persist_connect(const Record& rec) {
  if (!store_) return;
  if (rec.block.is_utxo()) {
    // Replay the block's effect on the chainstate in block order. Created
    // outputs are read from the transaction itself, not the live set — a
    // later tx in the same block may already have spent them.
    const auto& txs = rec.block.utxo_txs();
    assert(rec.undo.txs.size() == txs.size());
    for (std::size_t k = 0; k < txs.size(); ++k) {
      const TxUndo& u = rec.undo.txs[k];
      for (const auto& [op, out] : u.spent)
        store_->state().erase(outpoint_key(op));
      for (const Outpoint& op : u.created)
        store_->state().put(outpoint_key(op),
                            encode_txout(txs[k].outputs[op.index]));
    }
  } else {
    // Write the post-block value of every touched account and log the
    // delta record that makes the write set replayable/prunable.
    Writer delta;
    delta.fixed(rec.block.header.state_root);
    const auto ids = touched_accounts(rec.block);
    delta.varint(ids.size());
    for (const crypto::AccountId& id : ids) {
      delta.fixed(id);
      if (auto st = state_.get(id)) {
        const Bytes value = st->encode();
        delta.u8(1);
        delta.blob(value);
        store_->state().put(id, value);
      } else {
        delta.u8(0);
        store_->state().erase(id);
      }
    }
    store_->log().append(storage::RecordType::kDelta, rec.hash,
                         std::move(delta).take());
  }
  store_->commit();
}

void Blockchain::persist_disconnect(const Record& rec) {
  if (!store_) return;
  if (rec.block.is_utxo()) {
    // Inverse of persist_connect, in reverse tx order: delete what the
    // block created, restore what it spent.
    for (std::size_t k = rec.undo.txs.size(); k-- > 0;) {
      const TxUndo& u = rec.undo.txs[k];
      for (const Outpoint& op : u.created)
        store_->state().erase(outpoint_key(op));
      for (const auto& [op, out] : u.spent)
        store_->state().put(outpoint_key(op), encode_txout(out));
    }
  } else {
    // state_ has already been restored to the parent version; rewrite the
    // touched accounts from it. The kDelta record stays in the log, just
    // as state_db_ keeps the disconnected version (prune_states reclaims
    // both).
    for (const crypto::AccountId& id : touched_accounts(rec.block)) {
      if (auto st = state_.get(id))
        store_->state().put(id, st->encode());
      else
        store_->state().erase(id);
    }
  }
  store_->commit();
}

std::size_t Blockchain::replay_from_store() {
  if (!store_) return 0;
  // Snapshot the header sequence first: submit() appends to the log while
  // we iterate, and append order is the order blocks were admitted, so a
  // child is always offered after its parent (no orphan limbo).
  std::vector<std::pair<Hash256, Bytes>> headers;
  store_->log().for_each(
      [&](storage::RecordType type, const Hash256& key, ByteView payload) {
        if (type == storage::RecordType::kHeader)
          headers.emplace_back(key, Bytes(payload.begin(), payload.end()));
      });
  std::size_t accepted = 0;
  for (const auto& [hash, raw] : headers) {
    if (index_.count(hash)) continue;  // genesis, or already replayed
    const auto body = store_->log().read(storage::RecordType::kBody, hash);
    if (!body) continue;  // body pruned: header-only history, not replayable
    auto block = decode_block_records(raw, *body);
    if (!block) continue;
    auto res = submit(*block);
    if (res && res->outcome != Accept::kDuplicate) ++accepted;
  }
  return accepted;
}

Result<Block> Blockchain::read_block(const BlockHash& hash) const {
  if (!store_) return make_error("no-store");
  const auto header = store_->log().read(storage::RecordType::kHeader, hash);
  const auto body = store_->log().read(storage::RecordType::kBody, hash);
  if (!header || !body) return make_error("not-in-log");
  return decode_block_records(*header, *body);
}

std::uint64_t Blockchain::offload_bodies(std::uint32_t keep_depth) {
  if (!store_ || !store_->disk()) return 0;
  if (height() <= keep_depth) return 0;
  const std::uint32_t cutoff = height() - keep_depth;
  std::uint64_t dropped = 0;
  for (auto& [hash, rec] : index_) {
    if (rec.body_pruned || rec.offloaded_body_bytes) continue;
    if (rec.block.header.height >= cutoff) continue;
    const std::size_t body =
        rec.block.serialized_size() - rec.block.header.serialized_size();
    dropped += body;
    for (const auto& undo : rec.undo.txs)
      dropped += undo.spent.size() * 76 + undo.created.size() * 36;
    rec.undo.txs.clear();
    if (rec.block.is_utxo())
      rec.block.txs = UtxoTxList{};
    else
      rec.block.txs = AccountTxList{};
    rec.offloaded_body_bytes = body;
  }
  // Reorgs below the cutoff would need the dropped undo data; refuse them
  // the same way body pruning does.
  pruned_below_ = std::max(pruned_below_, cutoff);
  return dropped;
}

std::string Blockchain::render_tree(std::uint32_t from_height) const {
  std::map<std::uint32_t, std::vector<const Record*>> by_height;
  for (const auto& [hash, rec] : index_)
    if (rec.block.header.height >= from_height)
      by_height[rec.block.header.height].push_back(&rec);

  std::string out;
  for (auto& [h, recs] : by_height) {
    std::sort(recs.begin(), recs.end(),
              [](const Record* a, const Record* b) { return a->hash < b->hash; });
    out += "h=" + std::to_string(h) + ":";
    for (const Record* rec : recs) {
      out += ' ';
      const bool active = on_active_chain(rec->hash);
      out += active ? '[' : ' ';
      out += short_hex(rec->hash);
      if (!rec->state_valid) out += "(invalid)";
      out += active ? ']' : ' ';
    }
    out += '\n';
  }
  return out;
}

}  // namespace dlt::chain
