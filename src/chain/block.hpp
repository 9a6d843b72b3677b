// Blocks and headers (paper §II-A, Fig. 1).
//
// "Blocks contain headers and transactions. Each block header, amongst
// other metadata, contains a reference to its predecessor in the form of
// the predecessor's hash."
#pragma once

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "chain/account_tx.hpp"
#include "chain/params.hpp"
#include "chain/transaction.hpp"
#include "crypto/digest_cache.hpp"
#include "crypto/hashcash.hpp"
#include "crypto/merkle.hpp"
#include "support/bytes.hpp"
#include "support/result.hpp"

namespace dlt::chain {

using BlockHash = Hash256;

struct BlockHeader {
  std::uint32_t height = 0;
  BlockHash parent;              // zero for the genesis block
  Hash256 merkle_root;           // commits to the transaction list
  Hash256 state_root;            // account model: trie root after this block
  double timestamp = 0.0;        // simulated seconds since genesis
  double difficulty = 1.0;       // expected hash attempts (PoW)
  std::uint64_t nonce = 0;       // PoW solution
  crypto::AccountId proposer;    // coinbase recipient / PoS proposer
  std::uint64_t slot = 0;        // PoS slot number

  /// Serialization of all fields except the nonce: the PoW puzzle payload.
  Bytes pow_payload() const;
  /// Full canonical serialization (including nonce).
  Bytes serialize() const;
  std::size_t serialized_size() const { return kSerializedSize; }
  static constexpr std::size_t kSerializedSize =
      4 + 32 + 32 + 32 + 8 + 8 + 8 + 32 + 8;

  /// Block id: tagged hash of the full header. Memoized; mutating any
  /// field (including the nonce) after a call requires an explicit
  /// invalidate_digests().
  BlockHash hash() const;

  /// The digest the PoW target test applies to. The SHA-256 midstate over
  /// pow_payload() is memoized, so sweeping the nonce -- which is outside
  /// the payload -- costs only the 8-byte tail per candidate.
  Hash256 pow_digest() const;

  /// Drops the memoized header hash and PoW midstate.
  void invalidate_digests() {
    hash_memo_.invalidate();
    pow_memo_.reset();
  }

  bool is_genesis() const { return parent.is_zero(); }

 private:
  crypto::DigestCache hash_memo_;
  mutable std::optional<crypto::PowMidstate> pow_memo_;
};

/// True if `digest`, read as a 64-bit prefix, meets `difficulty` expected
/// tries. This is partial hash inversion with a fractional target, matching
/// Bitcoin's 256-bit target semantics at simulation precision.
bool meets_target(const Hash256& digest, double difficulty);

/// The header rules a full node and an SPV client both apply to a header
/// extending `parent` (paper §II-A): the next height, no timestamp
/// regression, the scheduled difficulty (`expected_difficulty`, to within
/// 1e-9 relative) and, under PoW with params.verify_pow, the proof of work.
Status check_header(const ChainParams& params, const BlockHeader& header,
                    const BlockHeader& parent, double expected_difficulty);

/// Body payload: one of the two transaction models.
using UtxoTxList = std::vector<UtxoTransaction>;
using AccountTxList = std::vector<AccountTransaction>;

class Block {
 public:
  BlockHeader header;
  std::variant<UtxoTxList, AccountTxList> txs;

  bool is_utxo() const { return std::holds_alternative<UtxoTxList>(txs); }
  const UtxoTxList& utxo_txs() const { return std::get<UtxoTxList>(txs); }
  UtxoTxList& utxo_txs() { return std::get<UtxoTxList>(txs); }
  const AccountTxList& account_txs() const {
    return std::get<AccountTxList>(txs);
  }
  AccountTxList& account_txs() { return std::get<AccountTxList>(txs); }

  std::size_t tx_count() const;

  /// Transaction ids in block order (Merkle leaves).
  std::vector<Hash256> tx_ids() const;

  /// Merkle root over tx_ids().
  Hash256 compute_merkle_root() const;

  /// Serialized size of header + all transactions (ledger-size accounting).
  std::size_t serialized_size() const;

  /// Total gas consumed (account model; 0 for UTXO blocks).
  std::uint64_t total_gas() const;

  BlockHash hash() const { return header.hash(); }
};

}  // namespace dlt::chain
