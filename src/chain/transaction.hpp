// UTXO transactions (Bitcoin model, paper §II-A).
//
// A transaction spends previously created outputs (inputs reference them by
// txid + index and carry a signature over the transaction) and creates new
// outputs locked to an account. The coinbase transaction has no inputs and
// mints the block reward + fees.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "chain/params.hpp"
#include "crypto/digest_cache.hpp"
#include "crypto/keys.hpp"
#include "support/bytes.hpp"
#include "support/serialize.hpp"

namespace dlt::chain {

using TxId = Hash256;

struct Outpoint {
  TxId txid;
  std::uint32_t index = 0;
  auto operator<=>(const Outpoint&) const = default;
};

struct TxOut {
  Amount value = 0;
  crypto::AccountId owner;  // pay-to-account-hash
  auto operator<=>(const TxOut&) const = default;
};

struct TxIn {
  Outpoint prevout;
  std::uint64_t pubkey = 0;        // key whose account must own prevout
  crypto::Signature signature{};   // over the transaction sighash
};

class UtxoTransaction {
 public:
  std::vector<TxIn> inputs;
  std::vector<TxOut> outputs;
  std::uint32_t lock_height = 0;  // not spendable in blocks below this

  bool is_coinbase() const { return inputs.empty(); }

  /// Canonical serialization with signatures; its double-SHA is the txid.
  /// The block log's body records store the same bytes (chain/codec.hpp).
  void write(Writer& w) const;
  Bytes serialize() const;
  std::size_t serialized_size() const;

  /// Memoized (crypto::DigestCache): hashed once, then served from cache
  /// until invalidate_digests(). Mutating fields directly after calling
  /// id()/sighash() requires an explicit invalidate_digests().
  TxId id() const;

  /// Digest each input signs: the tx with all signatures zeroed. Memoized.
  Hash256 sighash() const;

  /// Drops the memoized id and sighash. sign_all() handles its own
  /// invalidation (signatures change the id but not the sighash).
  void invalidate_digests() {
    id_memo_.invalidate();
    sighash_memo_.invalidate();
  }

  /// Signs every input with the corresponding keypair (one per input).
  void sign_all(const std::vector<crypto::KeyPair>& keys, Rng& rng);

  /// Constructs the miner's coinbase paying `reward` to `to`. `height`
  /// makes coinbases at different heights distinct (BIP-34's fix).
  static UtxoTransaction coinbase(const crypto::AccountId& to, Amount reward,
                                  std::uint32_t height);

  Amount total_output() const;

 private:
  crypto::DigestCache id_memo_;
  crypto::DigestCache sighash_memo_;
};

}  // namespace dlt::chain

namespace std {
template <>
struct hash<dlt::chain::Outpoint> {
  size_t operator()(const dlt::chain::Outpoint& o) const noexcept {
    return std::hash<dlt::Hash256>{}(o.txid) ^ (o.index * 0x9e3779b9u);
  }
};
}  // namespace std
