// Authenticated state trie (Ethereum-style Merkle-Patricia analogue).
//
// Paper §V-A: "Ethereum keeps track of the deltas in the global state
// maintained by a Merkle state tree... if one is not interested in past
// states, the deltas can be discarded without harming chain integrity."
//
// This is a persistent (copy-on-write, structurally shared) compressed
// hex-ary radix trie keyed by 32-byte hashes. Each update returns a new
// trie version that shares all unchanged subtrees with its parent -- an old
// root *is* a state delta: retaining it retains exactly the nodes that
// changed since. The chain layer keeps a window of recent versions for
// soft-fork rollback and prunes older ones (§V-A), and fast-sync walks a
// pivot version's nodes.
//
// Differences from Ethereum's MPT, documented as substitutions in DESIGN.md:
// RLP is replaced by our canonical serializer and the node kinds
// (branch/extension/leaf) are unified into one prefix-compressed node type;
// the authenticated-structure properties (root commits to content, proofs,
// structural sharing) are preserved.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "crypto/hash.hpp"
#include "support/bytes.hpp"

namespace dlt::crypto {

using Nibbles = std::vector<std::uint8_t>;  // values 0..15

Nibbles key_to_nibbles(const Hash256& key);
/// Inverse of key_to_nibbles: folds nibble pairs back into the key (how
/// for_each's keys become the 32-byte keys callers stored).
Hash256 nibbles_to_key(const Nibbles& nibbles);

class Trie {
 public:
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

  struct Node {
    Nibbles prefix;                       // compressed edge above this node
    std::optional<Bytes> value;           // set if a key terminates here
    std::array<NodePtr, 16> children{};   // by next nibble

    // Cached authentication hash; nodes are immutable after construction.
    mutable std::optional<Hash256> cached_hash;

    const Hash256& hash() const;
    std::size_t stored_bytes() const;  // serialized size model of this node
  };

  /// Empty trie.
  Trie() = default;

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return size_; }

  /// Authentication root; commits to the full key/value content.
  Hash256 root_hash() const;

  std::optional<Bytes> get(const Hash256& key) const;
  bool contains(const Hash256& key) const { return get(key).has_value(); }

  /// Persistent update: returns the new version, *this is unchanged.
  Trie put(const Hash256& key, Bytes value) const;
  Trie erase(const Hash256& key) const;

  /// Visits all (key-nibbles, value) pairs in lexicographic nibble order.
  void for_each(
      const std::function<void(const Nibbles&, const Bytes&)>& fn) const;

  /// Inclusion proof: the hashes of all sibling subtrees along the path,
  /// enough for a verifier holding only root_hash() to check key -> value.
  struct ProofNode {
    Nibbles prefix;
    bool has_value = false;
    Bytes value;  // only for the terminal node
    std::vector<std::pair<std::uint8_t, Hash256>> children;  // nibble->hash
  };
  std::optional<std::vector<ProofNode>> prove(const Hash256& key) const;
  static bool verify_proof(const Hash256& root, const Hash256& key,
                           const Bytes& expected_value,
                           const std::vector<ProofNode>& proof);

  /// Nodes reachable from this version and not yet in `seen`; used to
  /// measure incremental storage of retained versions (state deltas) and to
  /// enumerate the download set for fast-sync. Returns (nodes, bytes) added.
  std::pair<std::size_t, std::size_t> collect_nodes(
      std::unordered_set<const Node*>& seen) const;

  /// Total unique nodes/bytes of this version alone.
  std::pair<std::size_t, std::size_t> measure() const;

 private:
  explicit Trie(NodePtr root, std::size_t size)
      : root_(std::move(root)), size_(size) {}

  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace dlt::crypto
