#include "chain/light_client.hpp"

#include <algorithm>

#include "chain/difficulty.hpp"

namespace dlt::chain {

Status LightClient::set_genesis(const BlockHeader& genesis) {
  if (!genesis.is_genesis())
    return make_error("not-genesis", "header has a parent");
  if (!headers_.empty()) return make_error("already-initialized");
  headers_.push_back(genesis);
  return Status::success();
}

const BlockHeader* LightClient::header_at(std::uint32_t h) const {
  if (h >= headers_.size()) return nullptr;
  return &headers_[h];
}

double LightClient::next_difficulty() const {
  const BlockHeader& parent = headers_.back();
  return scheduled_difficulty(
      params_, height(), parent.difficulty, parent.timestamp,
      [this](std::uint32_t h) { return headers_[h].timestamp; });
}

Status LightClient::accept_header(const BlockHeader& header) {
  if (headers_.empty())
    return make_error("uninitialized", "set_genesis first");
  const BlockHeader& parent = headers_.back();
  if (header.parent != parent.hash())
    return make_error("wrong-parent",
                      "header does not extend this client's chain");
  Status st = check_header(params_, header, parent, next_difficulty());
  if (!st.ok()) return st;
  headers_.push_back(header);
  return Status::success();
}

Result<std::uint32_t> LightClient::verify_inclusion(
    const InclusionProof& proof) const {
  const BlockHeader* header = header_at(proof.height);
  if (!header)
    return make_error("unknown-height", "client has not synced that far");
  if (!crypto::MerkleTree::verify(header->merkle_root, proof.txid,
                                  proof.index, proof.merkle))
    return make_error("bad-proof", "merkle path does not reach the root");
  return height() - proof.height + 1;  // confirmations (paper §IV-A)
}

Result<InclusionProof> make_inclusion_proof(const Blockchain& chain,
                                            const TxId& txid,
                                            std::uint32_t height) {
  const Block* resident = chain.at_height(height);
  if (!resident) return make_error("unknown-block");
  auto block = chain.full_block(resident->hash());
  if (!block) return block.error();

  const std::vector<Hash256> ids = block->tx_ids();
  const auto it = std::find(ids.begin(), ids.end(), txid);
  if (it == ids.end())
    return make_error("unknown-tx", "not in the named block");
  const auto index = static_cast<std::size_t>(it - ids.begin());

  crypto::MerkleTree tree(ids);
  auto merkle = tree.prove(index);
  if (!merkle) return merkle.error();

  InclusionProof proof;
  proof.txid = txid;
  proof.height = height;
  proof.index = index;
  proof.merkle = std::move(*merkle);
  return proof;
}

}  // namespace dlt::chain
