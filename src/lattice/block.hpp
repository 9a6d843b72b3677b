// Block-lattice blocks (paper §II-B, Fig. 2 & 3).
//
// "A DAG structure stores transactions in nodes, where each node holds a
// single transaction. In Nano, every account is linked to its own
// account-chain... Nodes are appended to an account-chain, each node
// representing a single transaction."
//
// Like Nano's state blocks, every block records the account's *resulting
// balance*, which is what makes §V-B head-only pruning possible, and names
// a representative, which is how voting weight is delegated (§III-B).
// Every block carries a small hashcash work proof as spam protection
// ("similar to Hashcash", §III-B).
#pragma once

#include <cstdint>
#include <string>

#include "crypto/digest_cache.hpp"
#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "crypto/sigcache.hpp"
#include "support/bytes.hpp"
#include "support/result.hpp"

namespace dlt::lattice {

using Amount = std::uint64_t;
using BlockHash = Hash256;

enum class BlockType : std::uint8_t {
  kOpen = 0,     // first block of an account chain; claims a pending send
  kSend,         // deducts from the sender (funds become pending, Fig. 3)
  kReceive,      // claims a pending send into this account (Fig. 3)
  kChange,       // re-delegates the representative (paper §III-B)
};

const char* to_string(BlockType t);

struct LatticeBlock {
  BlockType type = BlockType::kSend;
  crypto::AccountId account;      // chain this block belongs to
  BlockHash previous;             // head it builds on (zero for kOpen)
  Amount balance = 0;             // resulting balance of `account`
  /// kSend: destination account. kOpen/kReceive: hash of the matching send
  /// block. kChange: unused (zero).
  Hash256 link;
  crypto::AccountId representative;
  std::uint64_t work = 0;         // anti-spam hashcash nonce
  std::uint64_t pubkey = 0;
  crypto::Signature signature{};

  /// Canonical content hash (excludes work + signature, as in Nano).
  /// Memoized: mutating a content field after a call requires an explicit
  /// invalidate_digests(); sign()/solve_work() only touch excluded fields.
  BlockHash hash() const;

  /// Drops the memoized content hash.
  void invalidate_digests() { hash_memo_.invalidate(); }
  /// The payload the anti-spam work must cover: account chain position.
  Bytes work_payload() const;

  Bytes serialize() const;
  /// Inverse of serialize(): the storage codec for the block log. All
  /// fields are fixed-width integers, so the wire form is lossless.
  static Result<LatticeBlock> deserialize(ByteView raw);
  std::size_t serialized_size() const { return kSerializedSize; }
  /// Nano state blocks are 216 bytes on the wire; ours model the same
  /// order: 1 + 32*4 + 8 + 8 + 8 + 16 = 169, padded to Nano's figure.
  static constexpr std::size_t kSerializedSize = 216;

  void sign(const crypto::KeyPair& key, Rng& rng);
  /// A shared crypto::SignatureCache skips repeat verifications.
  bool verify_signature(crypto::SignatureCache* sigcache = nullptr) const;

  /// Solves the anti-spam puzzle in-place (real hashcash).
  void solve_work(int difficulty_bits);
  bool verify_work(int difficulty_bits) const;

 private:
  crypto::DigestCache hash_memo_;
};

/// The fork-slot identifier: two distinct blocks with the same root are a
/// fork (paper §IV-B: "two transactions may claim the same predecessor").
struct Root {
  crypto::AccountId account;
  BlockHash previous;
  auto operator<=>(const Root&) const = default;
};

}  // namespace dlt::lattice

namespace std {
template <>
struct hash<dlt::lattice::Root> {
  size_t operator()(const dlt::lattice::Root& r) const noexcept {
    return std::hash<dlt::Hash256>{}(r.account) ^
           (std::hash<dlt::Hash256>{}(r.previous) << 1);
  }
};
}  // namespace std
