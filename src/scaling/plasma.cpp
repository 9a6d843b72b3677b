#include "scaling/plasma.hpp"

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::scaling {

Hash256 PlasmaTx::sighash() const {
  Writer w;
  w.fixed(from);
  w.fixed(to);
  w.u64(amount);
  w.u64(nonce);
  return crypto::tagged_hash("dlt/plasma-tx",
                             ByteView{w.bytes().data(), w.size()});
}

Hash256 PlasmaTx::id() const {
  Writer w;
  w.fixed(from);
  w.fixed(to);
  w.u64(amount);
  w.u64(nonce);
  w.u64(pubkey);
  w.u64(signature.r);
  w.u64(signature.s);
  return crypto::tagged_hash("dlt/plasma-txid",
                             ByteView{w.bytes().data(), w.size()});
}

void PlasmaTx::sign(const crypto::KeyPair& key, Rng& rng) {
  from = key.account_id();
  pubkey = key.public_key();
  signature = key.sign(sighash().view(), rng);
}

bool PlasmaTx::verify_signature() const {
  if (crypto::account_of(pubkey) != from) return false;
  return crypto::verify(pubkey, sighash().view(), signature);
}

Hash256 PlasmaBlock::compute_root() const {
  std::vector<Hash256> leaves;
  leaves.reserve(txs.size());
  for (const PlasmaTx& tx : txs) leaves.push_back(tx.id());
  return crypto::MerkleTree::compute_root(std::move(leaves));
}

void PlasmaContract::deposit(Amount amount) { total_deposits_ += amount; }

void PlasmaContract::commit(std::uint64_t block_number, const Hash256& root) {
  roots_[block_number] = root;
}

std::optional<Hash256> PlasmaContract::committed_root(
    std::uint64_t block_number) const {
  auto it = roots_.find(block_number);
  if (it == roots_.end()) return std::nullopt;
  return it->second;
}

Status PlasmaContract::exit(const crypto::AccountId& user, Amount amount,
                            std::uint64_t block_number, const PlasmaTx& tx,
                            std::size_t tx_index,
                            const crypto::MerkleProof& proof) {
  auto root = committed_root(block_number);
  if (!root) return make_error("unknown-block");
  if (!(tx.to == user)) return make_error("not-beneficiary");
  if (tx.amount < amount) return make_error("amount-exceeds-proof");
  if (!crypto::MerkleTree::verify(*root, tx.id(), tx_index, proof))
    return make_error("bad-proof");
  if (total_deposits_ < amount)
    return make_error("insolvent", "exits exceed deposits");
  total_deposits_ -= amount;  // the exit pays out on the root chain directly
  return Status::success();
}

Status PlasmaContract::challenge(std::uint64_t block_number,
                                 const PlasmaTx& bad_tx, std::size_t tx_index,
                                 const crypto::MerkleProof& proof) {
  auto root = committed_root(block_number);
  if (!root) return make_error("unknown-block");
  if (!crypto::MerkleTree::verify(*root, bad_tx.id(), tx_index, proof))
    return make_error("bad-proof", "tx not in committed block");
  if (bad_tx.verify_signature())
    return make_error("no-fraud", "transaction is actually valid");
  // Fraud proven: "the Byzantine node gets penalized" (§VI-A).
  operator_slashed_ = true;
  operator_bond_ = 0;
  return Status::success();
}

void PlasmaOperator::sync_deposit(const crypto::AccountId& user,
                                  Amount amount) {
  contract_.deposit(amount);
  balances_[user] += amount;
}

Status PlasmaOperator::submit(const PlasmaTx& tx) {
  if (!tx.verify_signature()) return make_error("bad-signature");
  auto nonce = nonces_.find(tx.from);
  const std::uint64_t expected = nonce == nonces_.end() ? 0 : nonce->second;
  if (tx.nonce != expected) return make_error("bad-nonce");
  auto bal = balances_.find(tx.from);
  if (bal == balances_.end() || bal->second < tx.amount)
    return make_error("insufficient-balance");

  bal->second -= tx.amount;
  balances_[tx.to] += tx.amount;
  nonces_[tx.from] = expected + 1;
  pending_.push_back(tx);
  return Status::success();
}

std::optional<PlasmaBlock> PlasmaOperator::seal_and_commit() {
  if (pending_.empty()) return std::nullopt;
  PlasmaBlock block;
  block.number = blocks_.size();
  const std::size_t take = std::min(block_tx_limit_, pending_.size());
  block.txs.assign(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
  block.merkle_root = block.compute_root();
  contract_.commit(block.number, block.merkle_root);
  blocks_.push_back(block);
  return block;
}

PlasmaBlock PlasmaOperator::seal_with_forgery(const PlasmaTx& forged) {
  PlasmaBlock block;
  block.number = blocks_.size();
  block.txs = pending_;
  block.txs.push_back(forged);
  pending_.clear();
  block.merkle_root = block.compute_root();
  contract_.commit(block.number, block.merkle_root);
  blocks_.push_back(block);
  return block;
}

Amount PlasmaOperator::balance_of(const crypto::AccountId& user) const {
  auto it = balances_.find(user);
  return it == balances_.end() ? 0 : it->second;
}

Result<crypto::MerkleProof> PlasmaOperator::prove(std::uint64_t block_number,
                                                  std::size_t index) const {
  if (block_number >= blocks_.size()) return make_error("unknown-block");
  const PlasmaBlock& block = blocks_[block_number];
  std::vector<Hash256> leaves;
  leaves.reserve(block.txs.size());
  for (const PlasmaTx& tx : block.txs) leaves.push_back(tx.id());
  crypto::MerkleTree tree(std::move(leaves));
  return tree.prove(index);
}

}  // namespace dlt::scaling
