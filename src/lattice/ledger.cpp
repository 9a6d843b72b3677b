#include "lattice/ledger.hpp"

#include <cassert>

#include "support/serialize.hpp"

namespace dlt::lattice {

namespace {
/// State-backend value for an account frontier: head hash + the balance it
/// carries (all the state §V-B head-only pruning keeps).
Bytes encode_frontier(const LatticeBlock& head) {
  Writer w;
  w.fixed(head.hash());
  w.u64(head.balance);
  return std::move(w).take();
}
}  // namespace

Ledger::Ledger(LatticeParams params, const crypto::AccountId& genesis_account,
               const crypto::AccountId& genesis_representative,
               Amount supply)
    : params_(std::move(params)), supply_(supply) {
  // "Similar to the genesis block in blockchain, a DAG holds a genesis
  // transaction. The genesis transaction defines the initial state." §II-B
  genesis_.type = BlockType::kOpen;
  genesis_.account = genesis_account;
  genesis_.balance = supply;
  genesis_.representative = genesis_representative;

  AccountInfo info;
  info.chain.push_back(genesis_);
  info.cemented_height = 1;  // the genesis transaction is irreversible
  accounts_.emplace(genesis_account, std::move(info));
  locations_.emplace(genesis_.hash(), BlockLocation{genesis_account, 0});
  weights_[genesis_representative] += supply;
  block_count_ = 1;
}

const AccountInfo* Ledger::account(const crypto::AccountId& id) const {
  auto it = accounts_.find(id);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::optional<LatticeBlock> Ledger::find_block(const BlockHash& hash) const {
  auto it = locations_.find(hash);
  if (it == locations_.end()) return std::nullopt;
  const AccountInfo* info = account(it->second.account);
  assert(info);
  const LatticeBlock* b = info->block_at(it->second.height);
  if (!b) return std::nullopt;
  return *b;
}

bool Ledger::contains(const BlockHash& hash) const {
  return locations_.count(hash) != 0;
}

Amount Ledger::balance_of(const crypto::AccountId& id) const {
  const AccountInfo* info = account(id);
  return info ? info->head().balance : 0;
}

std::optional<BlockHash> Ledger::head_of(const crypto::AccountId& id) const {
  const AccountInfo* info = account(id);
  if (!info) return std::nullopt;
  return info->head().hash();
}

std::optional<LatticeBlock> Ledger::block_at_root(const Root& root) const {
  const AccountInfo* info = account(root.account);
  if (!info) return std::nullopt;
  if (root.previous.is_zero()) {
    const LatticeBlock* first = info->block_at(0);
    if (!first) return std::nullopt;
    return *first;
  }
  auto loc = locations_.find(root.previous);
  if (loc == locations_.end() || !(loc->second.account == root.account))
    return std::nullopt;
  const LatticeBlock* succ = info->block_at(loc->second.height + 1);
  if (!succ) return std::nullopt;
  return *succ;
}

Status Ledger::validate(const LatticeBlock& block) const {
  if (!block.verify_signature(sigcache_.get()))
    return make_error("bad-signature");
  if (params_.verify_work && !block.verify_work(params_.work_bits))
    return make_error("insufficient-work",
                      "anti-spam hashcash below threshold");

  const auto pending = [this](const BlockHash& link) -> const PendingInfo* {
    auto it = pending_.find(link);
    return it == pending_.end() ? nullptr : &it->second;
  };
  const AccountInfo* info = account(block.account);
  const LatticeBlock* head = info ? &info->head() : nullptr;

  if (block.type == BlockType::kOpen) {
    if (!block.previous.is_zero())
      return make_error("malformed", "open block with a predecessor");
    if (head) return make_error("fork", "account already opened");
    const PendingInfo* pend = pending(block.link);
    if (!pend) {
      // Distinguish a never-seen source from an already-claimed one.
      if (claimed_.count(block.link)) return make_error("already-claimed");
      return make_error("gap-source", "unknown source send");
    }
    if (!(pend->destination == block.account))
      return make_error("wrong-destination");
    if (block.balance != pend->amount)
      return make_error("bad-balance", "open must equal the pending amount");
    return Status::success();
  }

  if (!head)
    return make_error("gap-previous", "account chain does not exist");
  if (block.previous != head->hash()) {
    auto loc = locations_.find(block.previous);
    if (loc != locations_.end() && loc->second.account == block.account)
      return make_error("fork", "a successor already occupies this root");
    return make_error("gap-previous", "predecessor not found");
  }

  switch (block.type) {
    case BlockType::kSend: {
      if (block.link.is_zero())
        return make_error("malformed", "send without destination");
      if (block.balance >= head->balance)
        return make_error("bad-balance", "send must decrease the balance");
      return Status::success();
    }
    case BlockType::kReceive: {
      const PendingInfo* pend = pending(block.link);
      if (!pend) {
        if (claimed_.count(block.link)) return make_error("already-claimed");
        return make_error("gap-source", "unknown source send");
      }
      if (!(pend->destination == block.account))
        return make_error("wrong-destination");
      if (block.balance != head->balance + pend->amount)
        return make_error("bad-balance",
                          "receive must add exactly the pending amount");
      return Status::success();
    }
    case BlockType::kChange: {
      if (block.balance != head->balance)
        return make_error("bad-balance", "change must keep the balance");
      return Status::success();
    }
    case BlockType::kOpen:
      break;  // handled above
  }
  return make_error("malformed", "unknown block type");
}

void Ledger::apply_weight_change(const crypto::AccountId& old_rep,
                                 Amount old_bal,
                                 const crypto::AccountId& new_rep,
                                 Amount new_bal) {
  if (!old_rep.is_zero()) {
    auto it = weights_.find(old_rep);
    assert(it != weights_.end() && it->second >= old_bal);
    it->second -= old_bal;
    if (it->second == 0) weights_.erase(it);
  }
  if (!new_rep.is_zero()) weights_[new_rep] += new_bal;
}

Status Ledger::process(const LatticeBlock& block) {
  const BlockHash hash = block.hash();
  if (locations_.count(hash)) return make_error("duplicate");

  if (Status st = validate(block); !st.ok()) return st;
  apply_validated(block, hash);
  return Status::success();
}

void Ledger::apply_validated(const LatticeBlock& block, const BlockHash& hash) {
  if (block.type == BlockType::kOpen) {
    auto pend = pending_.find(block.link);
    claimed_.emplace(block.link, std::make_pair(hash, pend->second));
    pending_total_ -= pend->second.amount;
    pending_.erase(pend);

    AccountInfo info;
    info.chain.push_back(block);
    accounts_.emplace(block.account, std::move(info));
    locations_.emplace(hash, BlockLocation{block.account, 0});
    apply_weight_change({}, 0, block.representative, block.balance);
  } else {
    AccountInfo& info = accounts_.at(block.account);
    const LatticeBlock& head = info.head();

    if (block.type == BlockType::kSend) {
      const Amount amount = head.balance - block.balance;
      crypto::AccountId destination = block.link;
      pending_.emplace(hash, PendingInfo{block.account, destination, amount});
      pending_total_ += amount;
    } else if (block.type == BlockType::kReceive) {
      auto pend = pending_.find(block.link);
      claimed_.emplace(block.link, std::make_pair(hash, pend->second));
      pending_total_ -= pend->second.amount;
      pending_.erase(pend);
    }

    apply_weight_change(head.representative, head.balance,
                        block.representative, block.balance);
    locations_.emplace(hash, BlockLocation{block.account, info.height()});
    info.chain.push_back(block);
  }
  ++block_count_;
  persist_apply(block, hash);
}

void Ledger::persist_apply(const LatticeBlock& block, const BlockHash& hash) {
  if (!store_) return;
  store_->log().append(storage::RecordType::kBlock, hash, block.serialize());
  store_->state().put(block.account, encode_frontier(block));
  store_->commit();
}

void Ledger::persist_rollback(const LatticeBlock& block,
                              const BlockHash& hash) {
  if (!store_) return;
  store_->log().erase(storage::RecordType::kBlock, hash);
  const AccountInfo* info = account(block.account);
  if (info)
    store_->state().put(block.account, encode_frontier(info->head()));
  else
    store_->state().erase(block.account);
  store_->commit();
}

void Ledger::attach_store(std::shared_ptr<storage::LedgerStore> store) {
  store_ = std::move(store);
  if (!store_) return;
  const BlockHash gh = genesis_.hash();
  if (!store_->log().contains(storage::RecordType::kBlock, gh)) {
    store_->log().append(storage::RecordType::kBlock, gh,
                         genesis_.serialize());
    store_->state().put(genesis_.account, encode_frontier(genesis_));
  }
  store_->commit();
}

std::size_t Ledger::replay_from_store() {
  if (!store_) return 0;
  std::vector<Bytes> records;
  store_->log().for_each(
      [&](storage::RecordType type, const Hash256& key, ByteView payload) {
        (void)key;
        if (type == storage::RecordType::kBlock)
          records.emplace_back(payload.begin(), payload.end());
      });
  std::size_t accepted = 0;
  for (const Bytes& raw : records) {
    auto block = LatticeBlock::deserialize(raw);
    if (!block) continue;
    if (locations_.count(block->hash())) continue;  // genesis / replayed
    if (process(*block).ok()) ++accepted;
  }
  return accepted;
}

std::vector<std::pair<BlockHash, PendingInfo>> Ledger::pending_for(
    const crypto::AccountId& destination) const {
  std::vector<std::pair<BlockHash, PendingInfo>> out;
  for (const auto& [hash, info] : pending_)
    if (info.destination == destination) out.emplace_back(hash, info);
  return out;
}

Amount Ledger::total_pending() const {
  Amount sum = 0;
  for (const auto& [hash, info] : pending_) sum += info.amount;
  return sum;
}

void Ledger::for_each_head(
    const std::function<void(const crypto::AccountId&, const BlockHash&)>&
        fn) const {
  for (const auto& [id, info] : accounts_) fn(id, info.head().hash());
}

Amount Ledger::weight_of(const crypto::AccountId& representative) const {
  auto it = weights_.find(representative);
  return it == weights_.end() ? 0 : it->second;
}

Amount Ledger::total_weight() const { return supply_ - pending_total_; }

Status Ledger::rollback_one(const BlockHash& hash,
                            std::vector<LatticeBlock>& removed) {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return Status::success();  // already gone
  const crypto::AccountId account_id = loc->second.account;
  const std::uint32_t target_height = loc->second.height;

  {
    const AccountInfo& info = accounts_.at(account_id);
    if (target_height < info.cemented_height)
      return make_error("cemented", "cannot roll back a cemented block");
    if (target_height < info.pruned_below)
      return make_error("pruned", "cannot roll back pruned history");
  }

  while (true) {
    AccountInfo& info = accounts_.at(account_id);
    if (info.height() <= target_height) break;
    const LatticeBlock top = info.head();
    const BlockHash top_hash = top.hash();

    if (top.type == BlockType::kSend) {
      // A send's funds may already be claimed elsewhere; that claim (and
      // everything above it) must unwind first -- cascading rollback.
      auto claim = claimed_.find(top_hash);
      if (claim != claimed_.end()) {
        Status st = rollback_one(claim->second.first, removed);
        if (!st.ok()) return st;
      }
      auto pend = pending_.find(top_hash);
      assert(pend != pending_.end());
      pending_total_ -= pend->second.amount;
      pending_.erase(pend);
    } else if (top.type == BlockType::kReceive ||
               top.type == BlockType::kOpen) {
      // Re-expose the source send as pending.
      auto claim = claimed_.find(top.link);
      assert(claim != claimed_.end());
      pending_.emplace(top.link, claim->second.second);
      pending_total_ += claim->second.second.amount;
      claimed_.erase(claim);
    }

    // Reverse the weight delta this block applied.
    if (top.type == BlockType::kOpen) {
      apply_weight_change(top.representative, top.balance, {}, 0);
    } else {
      const LatticeBlock* below = info.block_at(info.height() - 2);
      assert(below && "rollback into pruned history");
      apply_weight_change(top.representative, top.balance,
                          below->representative, below->balance);
    }

    locations_.erase(top_hash);
    info.chain.pop_back();
    --block_count_;
    removed.push_back(top);

    const bool account_gone = info.chain.empty();
    if (account_gone) accounts_.erase(account_id);
    persist_rollback(top, top_hash);
    if (account_gone) break;
  }
  return Status::success();
}

Result<std::vector<LatticeBlock>> Ledger::rollback(const BlockHash& hash) {
  if (!locations_.count(hash)) return make_error("unknown-block");
  std::vector<LatticeBlock> removed;
  Status st = rollback_one(hash, removed);
  if (!st.ok()) return st.error();
  return removed;
}

Status Ledger::cement(const BlockHash& hash) {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return make_error("unknown-block");
  AccountInfo& info = accounts_.at(loc->second.account);
  info.cemented_height =
      std::max(info.cemented_height, loc->second.height + 1);
  return Status::success();
}

bool Ledger::is_cemented(const BlockHash& hash) const {
  auto loc = locations_.find(hash);
  if (loc == locations_.end()) return false;
  const AccountInfo* info = account(loc->second.account);
  return info && loc->second.height < info->cemented_height;
}

std::uint64_t Ledger::prune_history() {
  std::uint64_t reclaimed = 0;
  bool erased = false;
  for (auto& [id, info] : accounts_) {
    // Only cemented history may go; always keep the head block, whose
    // balance field carries the whole account state (§V-B).
    const std::uint32_t keep_from =
        std::min(info.cemented_height > 0 ? info.cemented_height - 1 : 0,
                 info.height() - 1);
    if (keep_from <= info.pruned_below) continue;
    const std::uint32_t drop = keep_from - info.pruned_below;
    for (std::uint32_t i = 0; i < drop; ++i) {
      locations_.erase(info.chain[i].hash());
      reclaimed += info.chain[i].serialized_size();
      if (store_)
        erased |= store_->log().erase(storage::RecordType::kBlock,
                                      info.chain[i].hash());
    }
    info.chain.erase(info.chain.begin(), info.chain.begin() + drop);
    info.pruned_below = keep_from;
    block_count_ -= drop;
    pruned_blocks_ += drop;
  }
  if (store_ && erased) {
    store_->note_pruned(store_->log().compact());
    store_->commit();
  }
  return reclaimed;
}

Ledger::StorageBreakdown Ledger::storage() const {
  StorageBreakdown s;
  s.blocks = block_count_ * LatticeBlock::kSerializedSize;
  s.pending_table = pending_.size() * (32 + 32 + 32 + 8);
  s.weight_table = weights_.size() * (32 + 8);
  return s;
}

bool Ledger::conserves_value() const {
  Amount balances = 0;
  for (const auto& [id, info] : accounts_) balances += info.head().balance;
  const Amount pending = total_pending();
  return pending == pending_total_ && balances + pending == supply_;
}

}  // namespace dlt::lattice
