#include "crypto/trie.hpp"

#include <algorithm>
#include <cassert>

#include "support/serialize.hpp"

namespace dlt::crypto {
namespace {

constexpr std::string_view kNodeTag = "dlt/trie-node";
constexpr std::string_view kEmptyTag = "dlt/trie-empty";
constexpr std::string_view kValueTag = "dlt/trie-value";

std::size_t common_prefix_len(const Nibbles& a, const Nibbles& b,
                              std::size_t b_from) {
  std::size_t n = 0;
  while (n < a.size() && b_from + n < b.size() && a[n] == b[b_from + n]) ++n;
  return n;
}

Hash256 value_hash(const Bytes& v) {
  return tagged_hash(kValueTag, ByteView{v.data(), v.size()});
}

/// Canonical node-hash preimage: prefix, value commitment, ordered children.
Hash256 hash_node_parts(
    const Nibbles& prefix, const std::optional<Hash256>& vhash,
    const std::vector<std::pair<std::uint8_t, Hash256>>& children) {
  Writer w;
  w.varint(prefix.size());
  for (auto nib : prefix) w.u8(nib);
  if (vhash) {
    w.u8(1);
    w.fixed(*vhash);
  } else {
    w.u8(0);
  }
  w.varint(children.size());
  for (const auto& [nib, h] : children) {
    w.u8(nib);
    w.fixed(h);
  }
  return tagged_hash(kNodeTag, ByteView{w.bytes().data(), w.bytes().size()});
}

}  // namespace

Nibbles key_to_nibbles(const Hash256& key) {
  Nibbles out;
  out.reserve(64);
  for (Byte b : key.v) {
    out.push_back(b >> 4);
    out.push_back(b & 0x0f);
  }
  return out;
}

Hash256 nibbles_to_key(const Nibbles& nibbles) {
  Hash256 key;
  for (std::size_t i = 0; i + 1 < nibbles.size() && i / 2 < key.v.size();
       i += 2)
    key.v[i / 2] = static_cast<Byte>((nibbles[i] << 4) | nibbles[i + 1]);
  return key;
}

const Hash256& Trie::Node::hash() const {
  if (!cached_hash) {
    std::vector<std::pair<std::uint8_t, Hash256>> kids;
    for (std::uint8_t i = 0; i < 16; ++i)
      if (children[i]) kids.emplace_back(i, children[i]->hash());
    std::optional<Hash256> vh;
    if (value) vh = value_hash(*value);
    cached_hash = hash_node_parts(prefix, vh, kids);
  }
  return *cached_hash;
}

std::size_t Trie::Node::stored_bytes() const {
  // Storage model: packed prefix nibbles, value bytes, and a 33-byte
  // (index + hash) reference per child, plus a small fixed header.
  std::size_t n = 8 + (prefix.size() + 1) / 2;
  if (value) n += 4 + value->size();
  for (const auto& c : children)
    if (c) n += 33;
  return n;
}

Hash256 Trie::root_hash() const {
  if (!root_) return tagged_hash(kEmptyTag, {});
  return root_->hash();
}

std::optional<Bytes> Trie::get(const Hash256& key) const {
  const Nibbles path = key_to_nibbles(key);
  const Node* node = root_.get();
  std::size_t pos = 0;
  while (node) {
    const std::size_t cp = common_prefix_len(node->prefix, path, pos);
    if (cp != node->prefix.size()) return std::nullopt;
    pos += cp;
    if (pos == path.size()) return node->value;
    const std::uint8_t nib = path[pos];
    node = node->children[nib].get();
    ++pos;
  }
  return std::nullopt;
}

namespace {

using Node = Trie::Node;
using NodePtr = Trie::NodePtr;

NodePtr make_node(Nibbles prefix, std::optional<Bytes> value,
                  std::array<NodePtr, 16> children) {
  auto n = std::make_shared<Node>();
  n->prefix = std::move(prefix);
  n->value = std::move(value);
  n->children = std::move(children);
  return n;
}

NodePtr insert_rec(const NodePtr& node, const Nibbles& path, std::size_t pos,
                   Bytes value, bool& added) {
  if (!node) {
    added = true;
    return make_node(Nibbles(path.begin() + static_cast<std::ptrdiff_t>(pos),
                             path.end()),
                     std::move(value), {});
  }

  const std::size_t cp = common_prefix_len(node->prefix, path, pos);

  if (cp == node->prefix.size()) {
    const std::size_t at = pos + cp;
    if (at == path.size()) {
      // Key terminates exactly at this node: replace/set value.
      added = !node->value.has_value();
      return make_node(node->prefix, std::move(value), node->children);
    }
    // Descend into the child selected by the next nibble.
    const std::uint8_t nib = path[at];
    auto children = node->children;
    children[nib] =
        insert_rec(node->children[nib], path, at + 1, std::move(value), added);
    return make_node(node->prefix, node->value, std::move(children));
  }

  // Prefix mismatch: split this node's edge at cp.
  // The existing node keeps its suffix below a new interior node.
  Nibbles shared(node->prefix.begin(),
                 node->prefix.begin() + static_cast<std::ptrdiff_t>(cp));
  const std::uint8_t old_branch = node->prefix[cp];
  Nibbles old_suffix(node->prefix.begin() + static_cast<std::ptrdiff_t>(cp + 1),
                     node->prefix.end());
  NodePtr moved_old = make_node(std::move(old_suffix), node->value,
                                node->children);

  std::array<NodePtr, 16> children{};
  children[old_branch] = std::move(moved_old);

  added = true;
  const std::size_t at = pos + cp;
  if (at == path.size()) {
    // New key ends at the split point.
    return make_node(std::move(shared), std::move(value), std::move(children));
  }
  const std::uint8_t new_branch = path[at];
  assert(new_branch != old_branch);
  children[new_branch] = make_node(
      Nibbles(path.begin() + static_cast<std::ptrdiff_t>(at + 1), path.end()),
      std::move(value), {});
  return make_node(std::move(shared), std::nullopt, std::move(children));
}

/// Post-delete cleanup: drop empty nodes, merge single-child pass-throughs.
NodePtr normalize(const NodePtr& node) {
  if (!node) return nullptr;
  int child_count = 0;
  int only = -1;
  for (int i = 0; i < 16; ++i) {
    if (node->children[static_cast<std::size_t>(i)]) {
      ++child_count;
      only = i;
    }
  }
  if (node->value) return node;
  if (child_count == 0) return nullptr;
  if (child_count == 1) {
    const NodePtr& child = node->children[static_cast<std::size_t>(only)];
    Nibbles merged = node->prefix;
    merged.push_back(static_cast<std::uint8_t>(only));
    merged.insert(merged.end(), child->prefix.begin(), child->prefix.end());
    return make_node(std::move(merged), child->value, child->children);
  }
  return node;
}

NodePtr erase_rec(const NodePtr& node, const Nibbles& path, std::size_t pos,
                  bool& removed) {
  if (!node) return nullptr;
  const std::size_t cp = common_prefix_len(node->prefix, path, pos);
  if (cp != node->prefix.size()) return node;  // key absent
  const std::size_t at = pos + cp;
  if (at == path.size()) {
    if (!node->value) return node;  // key absent
    removed = true;
    return normalize(make_node(node->prefix, std::nullopt, node->children));
  }
  const std::uint8_t nib = path[at];
  const NodePtr& child = node->children[nib];
  if (!child) return node;
  NodePtr new_child = erase_rec(child, path, at + 1, removed);
  if (!removed) return node;
  auto children = node->children;
  children[nib] = std::move(new_child);
  return normalize(make_node(node->prefix, node->value, std::move(children)));
}

void for_each_rec(
    const NodePtr& node, Nibbles& acc,
    const std::function<void(const Nibbles&, const Bytes&)>& fn) {
  if (!node) return;
  const std::size_t base = acc.size();
  acc.insert(acc.end(), node->prefix.begin(), node->prefix.end());
  if (node->value) fn(acc, *node->value);
  for (std::uint8_t i = 0; i < 16; ++i) {
    if (!node->children[i]) continue;
    acc.push_back(i);
    for_each_rec(node->children[i], acc, fn);
    acc.pop_back();
  }
  acc.resize(base);
}

void collect_rec(const NodePtr& node,
                 std::unordered_set<const Node*>& seen, std::size_t& nodes,
                 std::size_t& bytes) {
  if (!node) return;
  if (!seen.insert(node.get()).second) return;  // shared subtree, stop
  ++nodes;
  bytes += node->stored_bytes();
  for (const auto& c : node->children) collect_rec(c, seen, nodes, bytes);
}

}  // namespace

Trie Trie::put(const Hash256& key, Bytes value) const {
  const Nibbles path = key_to_nibbles(key);
  bool added = false;
  NodePtr new_root = insert_rec(root_, path, 0, std::move(value), added);
  return Trie(std::move(new_root), size_ + (added ? 1 : 0));
}

Trie Trie::erase(const Hash256& key) const {
  const Nibbles path = key_to_nibbles(key);
  bool removed = false;
  NodePtr new_root = erase_rec(root_, path, 0, removed);
  return Trie(std::move(new_root), size_ - (removed ? 1 : 0));
}

void Trie::for_each(
    const std::function<void(const Nibbles&, const Bytes&)>& fn) const {
  Nibbles acc;
  for_each_rec(root_, acc, fn);
}

std::optional<std::vector<Trie::ProofNode>> Trie::prove(
    const Hash256& key) const {
  const Nibbles path = key_to_nibbles(key);
  std::vector<ProofNode> proof;
  const Node* node = root_.get();
  std::size_t pos = 0;
  while (node) {
    const std::size_t cp = common_prefix_len(node->prefix, path, pos);
    if (cp != node->prefix.size()) return std::nullopt;
    pos += cp;
    ProofNode pn;
    pn.prefix = node->prefix;
    const bool terminal = (pos == path.size());
    for (std::uint8_t i = 0; i < 16; ++i) {
      if (!node->children[i]) continue;
      // The followed child's hash is recomputed by the verifier, so it is
      // omitted; every other child hash ships in the proof.
      if (!terminal && i == path[pos]) continue;
      pn.children.emplace_back(i, node->children[i]->hash());
    }
    if (terminal) {
      if (!node->value) return std::nullopt;
      pn.has_value = true;
      pn.value = *node->value;
      proof.push_back(std::move(pn));
      return proof;
    }
    if (node->value) {
      pn.has_value = true;
      pn.value = *node->value;
    }
    proof.push_back(std::move(pn));
    node = node->children[path[pos]].get();
    ++pos;
  }
  return std::nullopt;
}

bool Trie::verify_proof(const Hash256& root, const Hash256& key,
                        const Bytes& expected_value,
                        const std::vector<ProofNode>& proof) {
  if (proof.empty()) return false;
  const Nibbles path = key_to_nibbles(key);

  // Offsets of each proof node's prefix start within the key path.
  std::vector<std::size_t> offset(proof.size());
  std::size_t pos = 0;
  for (std::size_t i = 0; i < proof.size(); ++i) {
    offset[i] = pos;
    const Nibbles& pre = proof[i].prefix;
    if (pos + pre.size() > path.size()) return false;
    if (!std::equal(pre.begin(), pre.end(),
                    path.begin() + static_cast<std::ptrdiff_t>(pos)))
      return false;
    pos += pre.size();
    if (i + 1 < proof.size()) ++pos;  // branch nibble into the next node
  }
  if (pos != path.size()) return false;

  const ProofNode& term = proof.back();
  if (!term.has_value || term.value != expected_value) return false;

  // Recompute hashes from the terminal node upward.
  auto node_hash = [](const ProofNode& pn,
                      std::optional<std::pair<std::uint8_t, Hash256>> extra) {
    std::vector<std::pair<std::uint8_t, Hash256>> kids = pn.children;
    if (extra) kids.push_back(*extra);
    std::sort(kids.begin(), kids.end());
    std::optional<Hash256> vh;
    if (pn.has_value)
      vh = tagged_hash(kValueTag, ByteView{pn.value.data(), pn.value.size()});
    return hash_node_parts(pn.prefix, vh, kids);
  };

  Hash256 acc = node_hash(term, std::nullopt);
  for (std::size_t i = proof.size() - 1; i-- > 0;) {
    const std::uint8_t branch = path[offset[i] + proof[i].prefix.size()];
    acc = node_hash(proof[i], std::make_pair(branch, acc));
  }
  return acc == root;
}

std::pair<std::size_t, std::size_t> Trie::collect_nodes(
    std::unordered_set<const Node*>& seen) const {
  std::size_t nodes = 0, bytes = 0;
  collect_rec(root_, seen, nodes, bytes);
  return {nodes, bytes};
}

std::pair<std::size_t, std::size_t> Trie::measure() const {
  std::unordered_set<const Node*> seen;
  return collect_nodes(seen);
}

}  // namespace dlt::crypto
