// FlatMap: an open-addressing hash table for the hot lookup tables: the
// UTXO set, mempool claims, state-arena key set, signature cache, gossip
// dedup, block-log catalog, the lattice ledger's block locations and
// claimed sends, and the lattice node's vote tallies, confirmed set,
// vote buffer and first-seen times.
//
// std::unordered_map walks a bucket's node list, re-hashing each visited
// node to test bucket membership, and divides by a prime on every probe.
// FlatMap keeps its entries in one array beside a tag byte per slot (0 =
// empty, else 0x80 | 7 hash bits), probes linearly and erases by backward
// shift, so it needs no tombstones and a miss stops at the first empty
// slot. Max load is 7/8; past it the table doubles.
//
// The home slot is the high bits of hash * 2^64/phi (Fibonacci hashing),
// never the hash's low bits: std::hash<std::uint64_t> is the identity, and
// the outpoint keys of one transaction differ only in bytes 0-3, which
// std::hash<FixedBytes> puts in its low bits. Indexed by `h & mask`, such
// keys fill one dense run of slots that every other key landing in it
// must walk to its end.
//
// Iteration runs in slot order, which depends on the hash and the insert
// and erase history: use FlatMap only where nothing depends on that order.
// Any insert may move every entry (growth) and any erase may move its
// neighbours (backward shift), so both invalidate every reference and
// iterator. For the same reason the key and value arguments of
// try_emplace() and operator[] must not refer into the table: growth
// moves every entry before the new one is built. A moved-from table is
// empty and usable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace dlt::support {

/// Mapped type of a FlatSet; takes no room in a slot.
struct FlatEmpty {};

template <typename K, typename V>
struct FlatEntry {
  K first;
  [[no_unique_address]] V second;
};

template <typename K, typename V, typename Hash = std::hash<K>>
class FlatMap {
  template <bool Const>
  class Iter;

 public:
  using value_type = FlatEntry<K, V>;
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatMap() = default;
  explicit FlatMap(Hash hash) : hash_(std::move(hash)) {}
  FlatMap(const FlatMap& other) : hash_(other.hash_) {
    if (other.size_ == 0) return;
    allocate(other.capacity());
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (other.tags_[i] == 0) continue;
      ::new (static_cast<void*>(slots_ + i)) value_type(other.slots_[i]);
      tags_[i] = other.tags_[i];
    }
    size_ = other.size_;
  }
  FlatMap(FlatMap&& other) noexcept : hash_(other.hash_) { swap(other); }
  FlatMap& operator=(FlatMap other) noexcept {
    swap(other);
    return *this;
  }
  ~FlatMap() { release(); }

  void swap(FlatMap& other) noexcept {
    std::swap(tags_, other.tags_);
    std::swap(slots_, other.slots_);
    std::swap(mask_, other.mask_);
    std::swap(shift_, other.shift_);
    std::swap(size_, other.size_);
    std::swap(hash_, other.hash_);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_ ? mask_ + 1 : 0; }

  iterator begin() { return {this, next_occupied(0)}; }
  iterator end() { return {this, capacity()}; }
  const_iterator begin() const { return {this, next_occupied(0)}; }
  const_iterator end() const { return {this, capacity()}; }

  iterator find(const K& key) { return {this, find_pos(key)}; }
  const_iterator find(const K& key) const { return {this, find_pos(key)}; }
  std::size_t count(const K& key) const {
    return find_pos(key) != capacity() ? 1 : 0;
  }

  /// Inserts {key, V(args...)} unless `key` is present; either way returns
  /// the key's entry and whether it was inserted.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    if (slots_ == nullptr) allocate(kMinCapacity);
    Probe p = probe(key);
    for (; tags_[p.pos] != 0; p.pos = (p.pos + 1) & mask_)
      if (tags_[p.pos] == p.tag && slots_[p.pos].first == key)
        return {iterator(this, p.pos), false};
    if (size_ + 1 > capacity() - capacity() / 8) {
      grow();
      p = probe(key);
      while (tags_[p.pos] != 0) p.pos = (p.pos + 1) & mask_;
    }
    ::new (static_cast<void*>(slots_ + p.pos))
        value_type{key, V(std::forward<Args>(args)...)};
    tags_[p.pos] = p.tag;
    ++size_;
    return {iterator(this, p.pos), true};
  }

  std::pair<iterator, bool> insert(const K& key)
    requires std::is_same_v<V, FlatEmpty>
  {
    return try_emplace(key);
  }

  V& operator[](const K& key) { return try_emplace(key).first->second; }

  std::size_t erase(const K& key) {
    const std::size_t pos = find_pos(key);
    if (pos == capacity()) return 0;
    erase_at(pos);
    return 1;
  }
  void erase(const_iterator it) { erase_at(it.pos_); }

  /// Drops every entry and keeps the slot array for reuse.
  void clear() {
    if (size_ == 0) return;
    destroy_entries();
    std::memset(tags_, 0, capacity());
    size_ = 0;
  }

 private:
  static_assert(sizeof(std::size_t) == 8, "Fibonacci step assumes 64 bits");
  static constexpr std::size_t kMinCapacity = 16;

  template <bool Const>
  class Iter {
    using Map = std::conditional_t<Const, const FlatMap, FlatMap>;

   public:
    using value_type = FlatMap::value_type;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;
    using reference = std::conditional_t<Const, const value_type&, value_type&>;

    template <bool OtherConst>
      requires(Const && !OtherConst)
    Iter(const Iter<OtherConst>& other)  // NOLINT(google-explicit-constructor)
        : map_(other.map_), pos_(other.pos_) {}

    reference operator*() const { return map_->slots_[pos_]; }
    pointer operator->() const { return map_->slots_ + pos_; }
    Iter& operator++() {
      pos_ = map_->next_occupied(pos_ + 1);
      return *this;
    }
    bool operator==(const Iter& other) const { return pos_ == other.pos_; }

   private:
    friend class FlatMap;
    friend class Iter<!Const>;
    Iter(Map* map, std::size_t pos) : map_(map), pos_(pos) {}

    Map* map_ = nullptr;
    std::size_t pos_ = 0;
  };

  struct Probe {
    std::size_t pos;
    std::uint8_t tag;
  };

  Probe probe(const K& key) const {
    const std::uint64_t m =
        static_cast<std::uint64_t>(hash_(key)) * 0x9e3779b97f4a7c15ULL;
    return {static_cast<std::size_t>(m >> shift_),
            static_cast<std::uint8_t>(0x80 | ((m >> (shift_ - 7)) & 0x7f))};
  }

  /// Slot of `key`, or capacity() when absent.
  std::size_t find_pos(const K& key) const {
    if (size_ == 0) return capacity();
    auto [pos, tag] = probe(key);
    for (; tags_[pos] != 0; pos = (pos + 1) & mask_)
      if (tags_[pos] == tag && slots_[pos].first == key) return pos;
    return capacity();
  }

  std::size_t next_occupied(std::size_t pos) const {
    while (pos < capacity() && tags_[pos] == 0) ++pos;
    return pos;
  }

  /// Backward-shift deletion: walks the run after `pos` and moves back
  /// each entry whose probe path crosses the hole, so lookups never need
  /// a tombstone.
  void erase_at(std::size_t pos) {
    slots_[pos].~value_type();
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask_; tags_[j] != 0;
         j = (j + 1) & mask_) {
      const std::size_t home = probe(slots_[j].first).pos;
      if (((j - home) & mask_) < ((j - hole) & mask_)) continue;
      ::new (static_cast<void*>(slots_ + hole))
          value_type(std::move(slots_[j]));
      slots_[j].~value_type();
      tags_[hole] = tags_[j];
      hole = j;
    }
    tags_[hole] = 0;
    --size_;
  }

  void grow() {
    FlatMap bigger(hash_);
    bigger.allocate(2 * capacity());
    for (std::size_t i = 0; i < capacity(); ++i) {
      if (tags_[i] == 0) continue;
      auto [pos, tag] = bigger.probe(slots_[i].first);
      while (bigger.tags_[pos] != 0) pos = (pos + 1) & bigger.mask_;
      ::new (static_cast<void*>(bigger.slots_ + pos))
          value_type(std::move(slots_[i]));
      bigger.tags_[pos] = tag;
    }
    bigger.size_ = size_;
    swap(bigger);
  }

  /// Installs an empty slot array of `cap` (a power of two) slots.
  void allocate(std::size_t cap) {
    tags_ = new std::uint8_t[cap]();
    slots_ = std::allocator<value_type>().allocate(cap);
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
  }

  void destroy_entries() {
    if constexpr (!std::is_trivially_destructible_v<value_type>)
      for (std::size_t i = 0; i < capacity(); ++i)
        if (tags_[i] != 0) slots_[i].~value_type();
  }

  void release() {
    if (slots_ == nullptr) return;
    destroy_entries();
    std::allocator<value_type>().deallocate(slots_, capacity());
    delete[] tags_;
  }

  std::uint8_t* tags_ = nullptr;
  value_type* slots_ = nullptr;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hash_{};
};

template <typename K, typename Hash = std::hash<K>>
using FlatSet = FlatMap<K, FlatEmpty, Hash>;

}  // namespace dlt::support
