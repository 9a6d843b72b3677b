#include "chain/block.hpp"

#include <algorithm>
#include <cmath>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::chain {

Bytes BlockHeader::pow_payload() const {
  Writer w;
  w.u32(height);
  w.fixed(parent);
  w.fixed(merkle_root);
  w.fixed(state_root);
  w.u64(static_cast<std::uint64_t>(timestamp * 1e6));  // microsecond grid
  w.u64(static_cast<std::uint64_t>(difficulty));
  w.fixed(proposer);
  w.u64(slot);
  return std::move(w).take();
}

Bytes BlockHeader::serialize() const {
  Writer w;
  w.raw(ByteView{pow_payload()});
  w.u64(nonce);
  return std::move(w).take();
}

BlockHash BlockHeader::hash() const {
  return hash_memo_.get([this] {
    const Bytes raw = serialize();
    return crypto::tagged_hash("dlt/block-header",
                               ByteView{raw.data(), raw.size()});
  });
}

Hash256 BlockHeader::pow_digest() const {
  if (!pow_memo_) {
    const Bytes payload = pow_payload();
    pow_memo_.emplace(ByteView{payload.data(), payload.size()});
  }
  return pow_memo_->digest(nonce);
}

bool meets_target(const Hash256& digest, double difficulty) {
  if (difficulty <= 1.0) return true;
  // target = 2^64 / difficulty; success prob per try = 1/difficulty.
  const double target = 18446744073709551616.0 /* 2^64 */ / difficulty;
  return static_cast<double>(crypto::hash_prefix_u64(digest)) < target;
}

Status check_header(const ChainParams& params, const BlockHeader& header,
                    const BlockHeader& parent, double expected_difficulty) {
  if (header.height != parent.height + 1) return make_error("bad-height");
  if (header.timestamp + 1e-9 < parent.timestamp)
    return make_error("timestamp-regression");
  if (std::abs(header.difficulty - expected_difficulty) >
      1e-9 * std::max(1.0, expected_difficulty))
    return make_error("bad-difficulty");
  if (params.verify_pow && params.consensus == ConsensusKind::kProofOfWork &&
      !meets_target(header.pow_digest(), header.difficulty))
    return make_error("bad-pow", "hash does not meet target");
  return Status::success();
}

std::size_t Block::tx_count() const {
  return std::visit([](const auto& list) { return list.size(); }, txs);
}

std::vector<Hash256> Block::tx_ids() const {
  std::vector<Hash256> ids;
  std::visit(
      [&ids](const auto& list) {
        ids.reserve(list.size());
        for (const auto& tx : list) ids.push_back(tx.id());
      },
      txs);
  return ids;
}

Hash256 Block::compute_merkle_root() const {
  return crypto::MerkleTree::compute_root(tx_ids());
}

std::size_t Block::serialized_size() const {
  std::size_t n = header.serialized_size();
  std::visit(
      [&n](const auto& list) {
        for (const auto& tx : list) n += tx.serialized_size();
      },
      txs);
  return n;
}

std::uint64_t Block::total_gas() const {
  if (is_utxo()) return 0;
  std::uint64_t gas = 0;
  for (const auto& tx : account_txs()) gas += tx.gas_used();
  return gas;
}

}  // namespace dlt::chain
