// Plasma-style nested chains (paper §VI-A).
//
// "The framework creates a nested blockchain structure by the use of smart
// contracts with a root chain being the Ethereum main chain... Only Merkle
// roots created in the sidechains are periodically broadcasted to the main
// network during non-faulty states allowing scalable transactions. For
// faulty states, stakeholders need to display proof of fraud and the
// Byzantine node gets penalized."
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "support/result.hpp"

namespace dlt::scaling {

using Amount = std::uint64_t;

/// A child-chain transfer (the only child-chain operation we model).
struct PlasmaTx {
  crypto::AccountId from;
  crypto::AccountId to;
  Amount amount = 0;
  std::uint64_t nonce = 0;
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  Hash256 id() const;
  Hash256 sighash() const;
  void sign(const crypto::KeyPair& key, Rng& rng);
  bool verify_signature() const;
};

struct PlasmaBlock {
  std::uint64_t number = 0;
  std::vector<PlasmaTx> txs;
  Hash256 merkle_root;  // what gets committed on the root chain

  Hash256 compute_root() const;
};

/// The root-chain contract: holds deposits and the operator's bond,
/// records per-block Merkle roots, adjudicates exits and fraud proofs.
class PlasmaContract {
 public:
  explicit PlasmaContract(Amount operator_bond)
      : operator_bond_(operator_bond) {}

  /// Locks `amount` on the root chain; the operator credits the user.
  void deposit(Amount amount);
  Amount total_deposits() const { return total_deposits_; }
  Amount operator_bond() const { return operator_bond_; }
  bool operator_slashed() const { return operator_slashed_; }

  /// Operator commits a child-block root. Root-chain cost: one tx carrying
  /// 32 bytes, regardless of how many child transactions it commits.
  void commit(std::uint64_t block_number, const Hash256& root);
  std::optional<Hash256> committed_root(std::uint64_t block_number) const;
  std::size_t commitments() const { return roots_.size(); }

  /// Exit: a user leaves with `amount`, proving a transfer to them was
  /// included in a committed block. Verifies the Merkle proof on-chain.
  Status exit(const crypto::AccountId& user, Amount amount,
              std::uint64_t block_number, const PlasmaTx& tx,
              std::size_t tx_index, const crypto::MerkleProof& proof);

  /// Fraud proof: demonstrates the operator committed a block containing
  /// an invalid transaction (here: a bad signature proven by inclusion).
  /// On success the operator's bond is burned.
  Status challenge(std::uint64_t block_number, const PlasmaTx& bad_tx,
                   std::size_t tx_index, const crypto::MerkleProof& proof);

 private:
  std::map<std::uint64_t, Hash256> roots_;
  Amount total_deposits_ = 0;
  Amount operator_bond_;
  bool operator_slashed_ = false;
};

/// The child-chain operator: accepts transfers, seals blocks, commits
/// roots. A dishonest operator can be constructed for fraud-proof tests.
class PlasmaOperator {
 public:
  PlasmaOperator(PlasmaContract& contract, std::size_t block_tx_limit)
      : contract_(contract), block_tx_limit_(block_tx_limit) {}

  /// Child-chain balance bookkeeping starts from root-chain deposits.
  void sync_deposit(const crypto::AccountId& user, Amount amount);

  /// Accepts a transfer into the pending set (validated).
  Status submit(const PlasmaTx& tx);

  /// Seals up to block_tx_limit pending txs into a block and commits its
  /// root. Returns the block (empty optional if nothing pending).
  std::optional<PlasmaBlock> seal_and_commit();

  /// A malicious seal: includes `forged` (invalid) transaction anyway.
  PlasmaBlock seal_with_forgery(const PlasmaTx& forged);

  Amount balance_of(const crypto::AccountId& user) const;
  const std::vector<PlasmaBlock>& blocks() const { return blocks_; }
  std::size_t pending() const { return pending_.size(); }

  /// Inclusion proof for tx `index` of block `number` (for exits).
  Result<crypto::MerkleProof> prove(std::uint64_t block_number,
                                    std::size_t index) const;

 private:
  PlasmaContract& contract_;
  std::size_t block_tx_limit_;
  std::map<crypto::AccountId, Amount> balances_;
  std::map<crypto::AccountId, std::uint64_t> nonces_;
  std::vector<PlasmaTx> pending_;
  std::vector<PlasmaBlock> blocks_;
};

}  // namespace dlt::scaling
