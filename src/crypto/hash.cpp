#include "crypto/hash.hpp"

#include <functional>
#include <string>
#include <unordered_map>

namespace dlt::crypto {
namespace {

// The 64-byte `tag-digest || tag-digest` preamble is exactly one SHA-256
// block, so a context captured after it has empty buffers and costs two
// compressions to build. Tags form a small fixed vocabulary ("dlt/..."),
// so each thread memoizes one midstate per tag and every tagged hash pays
// only the compressions over `data`. thread_local keeps the map safe to
// use from any thread without locking. The map is searched by
// string_view (heterogeneous lookup), so only a tag's first use allocates
// its key: many tags are longer than the small-string buffer.
struct TagHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view tag) const {
    return std::hash<std::string_view>{}(tag);
  }
};

Sha256 tag_midstate(std::string_view tag) {
  thread_local std::unordered_map<std::string, Sha256Midstate, TagHash,
                                  std::equal_to<>>
      memo;
  auto it = memo.find(tag);
  if (it == memo.end()) {
    const Hash256 tag_digest = Sha256::digest(as_bytes(tag));
    Sha256 ctx;
    ctx.update(tag_digest.view());
    ctx.update(tag_digest.view());
    it = memo.emplace(tag, ctx.midstate()).first;
  }
  return Sha256::from_midstate(it->second);
}

}  // namespace

Hash256 tagged_hash(std::string_view tag, ByteView data) {
  Sha256 ctx = tag_midstate(tag);
  ctx.update(data);
  return ctx.finalize();
}

Hash256 combine(std::string_view tag, const Hash256& left,
                const Hash256& right) {
  Sha256 ctx = tag_midstate(tag);
  ctx.update(left.view());
  ctx.update(right.view());
  return ctx.finalize();
}

std::uint64_t hash_prefix_u64(const Hash256& h) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | h.v[static_cast<std::size_t>(i)];
  return v;
}

int leading_zero_bits(const Hash256& h) {
  int bits = 0;
  for (Byte b : h.v) {
    if (b == 0) {
      bits += 8;
      continue;
    }
    for (int i = 7; i >= 0; --i) {
      if (b & (1u << i)) return bits;
      ++bits;
    }
  }
  return bits;
}

}  // namespace dlt::crypto
