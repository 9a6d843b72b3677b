// FlatMap (support/flat_map.hpp) against std::unordered_map: seeded random
// operation sequences over the three key shapes the simulator stores, with
// size and contents compared after every step. Mapped values are either a
// plain word or a vector that owns heap memory, as the lattice node's vote
// buffer and nested vote tallies do, so growth, backward-shift erase and
// destruction also run on values with non-trivial moves and destructors.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/bytes.hpp"
#include "support/flat_map.hpp"
#include "support/rng.hpp"

namespace dlt::support {
namespace {

Hash256 random_digest(Rng& rng) {
  Hash256 h;
  for (std::size_t i = 0; i < h.size(); i += 8) {
    const std::uint64_t word = rng.next();
    std::memcpy(h.data() + i, &word, 8);
  }
  return h;
}

/// Key `i` of the outpoint_key shape: one txid with the output index
/// XORed into bytes 0-3, as the chain keys a transaction's outputs.
Hash256 genesis_shaped(const Hash256& txid, std::uint32_t index) {
  Hash256 key = txid;
  for (int b = 0; b < 4; ++b) key[b] ^= static_cast<Byte>(index >> (8 * b));
  return key;
}

std::vector<Hash256> random_digests(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Hash256> keys;
  for (std::size_t i = 0; i < n; ++i) keys.push_back(random_digest(rng));
  return keys;
}

std::vector<Hash256> genesis_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const Hash256 txid = random_digest(rng);
  std::vector<Hash256> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(genesis_shaped(txid, static_cast<std::uint32_t>(i)));
  return keys;
}

std::vector<std::uint64_t> gossip_ids(std::size_t n, std::uint64_t) {
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(1 + i);
  return ids;
}

/// A mapped type that owns heap memory.
using Words = std::vector<std::uint64_t>;

/// A fresh value built from one random word: a vector of one to four
/// copies of it, so entries own buffers of different sizes.
template <typename V>
V make_value(std::uint64_t word) {
  if constexpr (std::is_same_v<V, Words>)
    return Words(1 + word % 4, word);
  else
    return word;
}

/// Changes a value in place through operator[]: a vector grows (and
/// reallocates now and then), a word accumulates.
void grow(std::uint64_t& value, std::uint64_t word) { value += word; }
void grow(Words& value, std::uint64_t word) { value.push_back(word); }

template <typename K, typename V = std::uint64_t>
using Ref = std::unordered_map<K, V>;

template <typename K, typename V>
void expect_same(const FlatMap<K, V>& flat, const Ref<K, V>& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.empty(), ref.empty());
  std::size_t visited = 0;
  for (const auto& [key, value] : flat) {
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(value, it->second);
    ++visited;
  }
  ASSERT_EQ(visited, ref.size());
  for (const auto& [key, value] : ref) {
    auto it = flat.find(key);
    ASSERT_NE(it, flat.end());
    ASSERT_EQ(it->second, value);
  }
}

/// One random operation on both tables over keys drawn from `keys`.
template <typename K, typename V>
void step(Rng& rng, const std::vector<K>& keys, FlatMap<K, V>& flat,
          Ref<K, V>& ref) {
  const K& key = keys[rng.uniform(keys.size())];
  const std::uint64_t value = rng.next();
  switch (rng.uniform(6)) {
    case 0: {
      auto [it, inserted] = flat.try_emplace(key, make_value<V>(value));
      auto [rit, rinserted] = ref.try_emplace(key, make_value<V>(value));
      ASSERT_EQ(inserted, rinserted);
      ASSERT_EQ(it->first, key);
      ASSERT_EQ(it->second, rit->second);
      break;
    }
    case 1:
      grow(flat[key], value);
      grow(ref[key], value);
      break;
    case 2: {
      auto it = flat.find(key);
      auto rit = ref.find(key);
      ASSERT_EQ(it == flat.end(), rit == ref.end());
      if (rit != ref.end()) {
        ASSERT_EQ(it->second, rit->second);
      }
      break;
    }
    case 3:
      ASSERT_EQ(flat.count(key), ref.count(key));
      break;
    case 4:
      ASSERT_EQ(flat.erase(key), ref.erase(key));
      break;
    default: {
      auto it = flat.find(key);
      if (it == flat.end()) {
        ASSERT_EQ(ref.count(key), 0u);
        break;
      }
      flat.erase(it);
      ASSERT_EQ(ref.erase(key), 1u);
      break;
    }
  }
}

/// Runs `steps` random operations over `pool` keys of one shape, checking
/// after each. A pool of 14 keys never fills a 16-slot table past 7/8, so
/// it stays at the minimum capacity, where probe runs wrap past the last
/// slot all the time.
template <typename K, typename V = std::uint64_t>
void run_differential(std::vector<K> (*make_keys)(std::size_t, std::uint64_t),
                      std::size_t pool, int steps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "pool " << pool << " seed " << seed);
    const std::vector<K> keys = make_keys(pool, seed);
    Rng rng(seed * 7919);
    FlatMap<K, V> flat;
    Ref<K, V> ref;
    for (int i = 0; i < steps; ++i) {
      step(rng, keys, flat, ref);
      expect_same(flat, ref);
      if (testing::Test::HasFatalFailure()) return;
    }
    if (pool <= 14) {
      EXPECT_EQ(flat.capacity(), 16u);
    }
  }
}

TEST(FlatMap, RandomDigestsMatchUnorderedMap) {
  for (std::size_t pool : {14u, 40u, 600u})
    run_differential<Hash256>(&random_digests, pool, 3000);
}

TEST(FlatMap, GenesisShapedKeysMatchUnorderedMap) {
  for (std::size_t pool : {14u, 40u, 600u})
    run_differential<Hash256>(&genesis_keys, pool, 3000);
}

TEST(FlatMap, SequentialIdsMatchUnorderedMap) {
  for (std::size_t pool : {14u, 40u, 600u})
    run_differential<std::uint64_t>(&gossip_ids, pool, 3000);
}

TEST(FlatMap, HeapOwningValuesMatchUnorderedMap) {
  for (std::size_t pool : {14u, 40u, 600u}) {
    run_differential<Hash256, Words>(&random_digests, pool, 3000);
    run_differential<Hash256, Words>(&genesis_keys, pool, 3000);
    run_differential<std::uint64_t, Words>(&gossip_ids, pool, 3000);
  }
}

TEST(FlatMap, HeapOwningValuesSurviveCopyAndMove) {
  const std::vector<Hash256> keys = random_digests(300, 17);
  Rng rng(19);
  FlatMap<Hash256, Words> flat;
  Ref<Hash256, Words> ref;
  for (int i = 0; i < 1500; ++i) step(rng, keys, flat, ref);
  ASSERT_GT(ref.size(), 100u);

  // A copy owns its own buffers: driving it leaves the original alone.
  FlatMap<Hash256, Words> copy = flat;
  Ref<Hash256, Words> ref_copy = ref;
  for (int i = 0; i < 1500; ++i) {
    step(rng, keys, copy, ref_copy);
    expect_same(copy, ref_copy);
    if (HasFatalFailure()) return;
  }
  expect_same(flat, ref);

  // Move-construction, then move-assignment over a full table.
  FlatMap<Hash256, Words> moved = std::move(flat);
  expect_same(moved, ref);
  EXPECT_TRUE(flat.empty());  // NOLINT(bugprone-use-after-move)
  copy = std::move(moved);
  expect_same(copy, ref);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

  // Copy-assignment over a full table; then both sides keep going.
  FlatMap<Hash256, Words> target;
  Ref<Hash256, Words> ref_target;
  for (int i = 0; i < 500; ++i) step(rng, keys, target, ref_target);
  ASSERT_FALSE(ref_target.empty());
  target = copy;
  ref_target = ref;
  for (int i = 0; i < 1500; ++i) {
    step(rng, keys, target, ref_target);
    step(rng, keys, copy, ref);
    expect_same(target, ref_target);
    expect_same(copy, ref);
    if (HasFatalFailure()) return;
  }
}

TEST(FlatMap, MovedFromTableIsEmptyAndReusable) {
  const std::vector<Hash256> keys = genesis_keys(200, 3);
  Rng rng(11);
  FlatMap<Hash256, std::uint64_t> flat;
  Ref<Hash256> ref;
  for (int i = 0; i < 400; ++i) step(rng, keys, flat, ref);
  ASSERT_FALSE(ref.empty());

  FlatMap<Hash256, std::uint64_t> moved = std::move(flat);
  expect_same(moved, ref);
  EXPECT_TRUE(flat.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_EQ(flat.begin(), flat.end());
  EXPECT_EQ(flat.count(keys[0]), 0u);
  EXPECT_EQ(flat.erase(keys[0]), 0u);

  // Move-assignment over a full table, as the gossip dedup rotation does.
  FlatMap<Hash256, std::uint64_t> target;
  for (int i = 0; i < 50; ++i) target[keys[i]] = 1;
  target = std::move(moved);
  expect_same(target, ref);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

  // Both moved-from tables take a fresh differential run.
  Ref<Hash256> fresh;
  for (int i = 0; i < 2000; ++i) {
    step(rng, keys, flat, fresh);
    expect_same(flat, fresh);
    if (HasFatalFailure()) return;
  }
  fresh.clear();
  for (int i = 0; i < 2000; ++i) {
    step(rng, keys, moved, fresh);
    expect_same(moved, fresh);
    if (HasFatalFailure()) return;
  }
}

TEST(FlatMap, CopyIsIndependent) {
  const std::vector<std::uint64_t> keys = gossip_ids(300, 0);
  Rng rng(5);
  FlatMap<std::uint64_t, std::uint64_t> flat;
  Ref<std::uint64_t> ref;
  for (int i = 0; i < 1000; ++i) step(rng, keys, flat, ref);
  FlatMap<std::uint64_t, std::uint64_t> copy = flat;
  Ref<std::uint64_t> ref_copy = ref;
  for (int i = 0; i < 1000; ++i) step(rng, keys, copy, ref_copy);
  expect_same(flat, ref);
  expect_same(copy, ref_copy);
}

TEST(FlatMap, ClearKeepsCapacityAndReuses) {
  const std::vector<Hash256> keys = random_digests(500, 9);
  Rng rng(13);
  FlatMap<Hash256, std::uint64_t> flat;
  Ref<Hash256> ref;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1500; ++i) {
      step(rng, keys, flat, ref);
      expect_same(flat, ref);
      if (HasFatalFailure()) return;
    }
    const std::size_t capacity = flat.capacity();
    flat.clear();
    ref.clear();
    expect_same(flat, ref);
    EXPECT_EQ(flat.capacity(), capacity);
    EXPECT_EQ(flat.begin(), flat.end());
    for (const Hash256& key : keys) ASSERT_EQ(flat.count(key), 0u);
  }
}

TEST(FlatSet, InsertCountEraseAndNoSlotOverhead) {
  static_assert(sizeof(FlatSet<Hash256>::value_type) == sizeof(Hash256));
  FlatSet<std::uint64_t> set;
  for (std::uint64_t id = 1; id <= 1000; ++id)
    EXPECT_TRUE(set.insert(id).second);
  for (std::uint64_t id = 1; id <= 1000; ++id)
    EXPECT_FALSE(set.insert(id).second);
  EXPECT_EQ(set.size(), 1000u);
  for (std::uint64_t id = 1; id <= 1000; id += 2) EXPECT_EQ(set.erase(id), 1u);
  for (std::uint64_t id = 1; id <= 1000; ++id)
    EXPECT_EQ(set.count(id), id % 2 == 0 ? 1u : 0u);
  EXPECT_EQ(set.size(), 500u);
}

}  // namespace
}  // namespace dlt::support
