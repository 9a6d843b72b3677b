// SPV light client (paper §II-A).
//
// The reason blocks commit to their transactions through a Merkle root
// (Fig. 1) is that a client holding only the ~164-byte headers can verify
// (a) that the header chain is internally consistent and carries the
// claimed proof of work, and (b) that a given transaction is included in
// a given block, using a logarithmic Merkle proof served by a full node.
// This is the header-only counterpart of §V's storage discussion: a light
// client stores O(height) bytes instead of the full ledger.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/block.hpp"
#include "chain/blockchain.hpp"
#include "crypto/merkle.hpp"
#include "support/result.hpp"

namespace dlt::chain {

/// What a full node serves to prove a transaction to a light client.
struct InclusionProof {
  TxId txid;
  std::uint32_t height = 0;       // block the tx is claimed to be in
  std::size_t index = 0;          // position within the block
  crypto::MerkleProof merkle;     // path to the header's merkle_root
};

class LightClient {
 public:
  explicit LightClient(ChainParams params) : params_(std::move(params)) {}

  /// Accepts the trusted genesis header (hard-coded, like the state).
  Status set_genesis(const BlockHeader& genesis);

  /// Appends one header after full SPV validation: the parent link, then
  /// the full node's own check_header (height, timestamp, difficulty
  /// schedule against the observed header chain, proof of work). Headers
  /// forming side chains are rejected -- this minimal client follows a
  /// single best chain as served by its peer.
  Status accept_header(const BlockHeader& header);

  std::uint32_t height() const {
    return static_cast<std::uint32_t>(headers_.size() - 1);
  }
  const BlockHeader& tip() const { return headers_.back(); }
  const BlockHeader* header_at(std::uint32_t h) const;
  std::uint64_t stored_bytes() const {
    return headers_.size() * BlockHeader::kSerializedSize;
  }

  /// SPV verification: the proof must connect `txid` to the Merkle root
  /// of the header at the claimed height. Returns the number of
  /// confirmations the transaction has from this client's viewpoint.
  Result<std::uint32_t> verify_inclusion(const InclusionProof& proof) const;

  /// Expected difficulty of the next header: the full node's
  /// scheduled_difficulty, fed purely from headers.
  double next_difficulty() const;

 private:
  ChainParams params_;
  std::vector<BlockHeader> headers_;
};

/// Full-node side: proves `txid` is in the active-chain block at `height`.
/// The caller names the block, as Bitcoin's gettxoutproof does on a node
/// without a transaction index. Errors: unknown-block (no such height),
/// pruned (its body was discarded, §V-A's trade-off), unknown-tx (the
/// block does not hold the tx). An offloaded body is read from the log.
Result<InclusionProof> make_inclusion_proof(const Blockchain& chain,
                                            const TxId& txid,
                                            std::uint32_t height);

}  // namespace dlt::chain
