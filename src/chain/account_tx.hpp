// Account-model transactions with gas (Ethereum model, paper §II-A, §VI-A).
//
// "Gas is the unit used to measure the fees required for a particular
// computation... gas limit defines the maximum amount of gas all
// transactions in the whole block combined are allowed to consume."
#pragma once

#include <cstdint>

#include "chain/params.hpp"
#include "crypto/digest_cache.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "support/bytes.hpp"
#include "support/serialize.hpp"

namespace dlt::chain {

/// Gas schedule (simplified Ethereum yellow-paper constants).
struct GasSchedule {
  std::uint64_t tx_base = 21'000;        // intrinsic cost of any tx
  std::uint64_t per_data_byte = 68;      // calldata cost
  std::uint64_t contract_creation = 32'000;
};

class AccountTransaction {
 public:
  crypto::AccountId from;   // derived from pubkey; must match
  crypto::AccountId to;     // zero => contract creation
  std::uint64_t nonce = 0;  // must equal sender's account nonce
  Amount value = 0;
  std::uint64_t gas_limit = 21'000;
  Amount gas_price = 1;           // fee per gas unit
  std::uint32_t data_size = 0;    // modelled calldata length (bytes)

  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  bool is_contract_creation() const { return to.is_zero(); }

  /// Gas consumed before any execution: base + calldata (+ creation).
  std::uint64_t intrinsic_gas(const GasSchedule& gs = {}) const;

  /// This simulation executes no EVM code; a transaction consumes its
  /// intrinsic gas (value transfers) -- matching the paper's throughput
  /// arithmetic where ~21k-gas transfers fill the block gas limit.
  std::uint64_t gas_used(const GasSchedule& gs = {}) const {
    return intrinsic_gas(gs);
  }

  Amount max_fee() const { return gas_limit * gas_price; }

  /// Canonical serialization with the signature (the id's preimage). The
  /// block log's body records store the same bytes (chain/codec.hpp).
  void write(Writer& w) const;
  Bytes serialize() const;
  std::size_t serialized_size() const;

  /// Memoized (crypto::DigestCache). Mutating fields directly after a call
  /// requires an explicit invalidate_digests(); sign() invalidates itself.
  Hash256 id() const;
  Hash256 sighash() const;

  /// Drops the memoized id and sighash.
  void invalidate_digests() {
    id_memo_.invalidate();
    sighash_memo_.invalidate();
  }

  void sign(const crypto::KeyPair& key, Rng& rng);
  /// Signature valid and signer's account matches `from`. A shared
  /// crypto::SignatureCache skips the exponentiations on repeat checks.
  bool verify_signature(crypto::SignatureCache* sigcache = nullptr) const;

 private:
  crypto::DigestCache id_memo_;
  crypto::DigestCache sighash_memo_;
};

}  // namespace dlt::chain
