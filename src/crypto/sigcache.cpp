#include "crypto/sigcache.hpp"

namespace dlt::crypto {
namespace {

// splitmix64 finalizer: cheap, well-mixed 64-bit avalanche.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t SignatureCache::EntryHash::operator()(const Entry& e) const {
  std::uint64_t h = mix(salt ^ e.pubkey);
  for (std::size_t i = 0; i < 32; i += 8) {
    std::uint64_t chunk = 0;
    for (std::size_t j = 0; j < 8; ++j)
      chunk = (chunk << 8) | e.sighash.v[i + j];
    h = mix(h ^ chunk);
  }
  h = mix(h ^ e.sig.r);
  h = mix(h ^ e.sig.s);
  return static_cast<std::size_t>(h);
}

SignatureCache::SignatureCache(std::size_t max_entries, std::uint64_t salt)
    : max_entries_(max_entries > 0 ? max_entries : 1),
      set_(EntryHash{salt}) {}

bool SignatureCache::contains(std::uint64_t pubkey, const Hash256& sighash,
                              const Signature& sig) {
  const bool found = set_.find(Entry{pubkey, sighash, sig}) != set_.end();
  if (found)
    ++stats_.hits;
  else
    ++stats_.misses;
  return found;
}

void SignatureCache::insert(std::uint64_t pubkey, const Hash256& sighash,
                            const Signature& sig) {
  if (set_.size() >= max_entries_) {
    set_.clear();  // wholesale reset: bounded and deterministic
    ++stats_.resets;
  }
  set_.insert(Entry{pubkey, sighash, sig});
  ++stats_.insertions;
}

bool verify_cached(SignatureCache* cache, std::uint64_t pubkey,
                   const Hash256& sighash, const Signature& sig) {
  if (cache != nullptr && cache->contains(pubkey, sighash, sig)) return true;
  const bool ok = verify(pubkey, sighash.view(), sig);
  if (ok && cache != nullptr) cache->insert(pubkey, sighash, sig);
  return ok;
}

}  // namespace dlt::crypto
