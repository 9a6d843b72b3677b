#include "crypto/keys.hpp"

#include <unordered_map>

#include "support/serialize.hpp"

namespace dlt::crypto {
namespace {

// Toy Schnorr group: Z_p^* with p = 2^61 - 1 (Mersenne prime).
// Exponents live modulo the group order p - 1. g = 3 generates a large
// subgroup. These parameters are simulation-grade only (see header).
constexpr std::uint64_t kP = (1ULL << 61) - 1;
constexpr std::uint64_t kOrder = kP - 1;
constexpr std::uint64_t kG = 3;

// 128-bit intermediates for modular multiplication. GCC/Clang extension;
// guarded so -Wpedantic stays clean.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpedantic"
using uint128 = unsigned __int128;
#pragma GCC diagnostic pop

std::uint64_t mul_mod(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(static_cast<uint128>(a) * b % kP);
}

std::uint64_t pow_mod(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t acc = 1;
  base %= kP;
  while (exp > 0) {
    if (exp & 1) acc = mul_mod(acc, base);
    base = mul_mod(base, base);
    exp >>= 1;
  }
  return acc;
}

/// Challenge e = H("schnorr-e" || r || message) reduced into the exponent
/// group.
std::uint64_t challenge(std::uint64_t r, ByteView message) {
  Writer w;
  w.u64(r);
  w.raw(message);
  const Hash256 h =
      tagged_hash("dlt/schnorr-e", ByteView{w.bytes().data(), w.size()});
  return hash_prefix_u64(h) % kOrder;
}

std::uint64_t add_mod_order(std::uint64_t a, std::uint64_t b) {
  // a, b < kOrder < 2^61, so the sum cannot overflow 64 bits.
  const std::uint64_t s = a + b;
  return s >= kOrder ? s - kOrder : s;
}

}  // namespace

KeyPair KeyPair::generate(Rng& rng) {
  // Private key in [1, order).
  const std::uint64_t priv = 1 + rng.uniform(kOrder - 1);
  return KeyPair(priv, pow_mod(kG, priv));
}

KeyPair KeyPair::from_seed(std::uint64_t seed) {
  Rng rng(seed ^ 0x5167e7u);
  return generate(rng);
}

AccountId KeyPair::account_id() const {
  return account_of(pub_);
}

Signature KeyPair::sign(ByteView message, Rng& rng) const {
  const std::uint64_t k = 1 + rng.uniform(kOrder - 1);
  const std::uint64_t r = pow_mod(kG, k);
  const std::uint64_t e = challenge(r, message);
  const std::uint64_t xe =
      static_cast<std::uint64_t>(static_cast<uint128>(priv_) * e % kOrder);
  return Signature{r, add_mod_order(k, xe)};
}

bool verify(std::uint64_t public_key, ByteView message, const Signature& sig) {
  if (public_key == 0 || public_key >= kP) return false;
  if (sig.r == 0 || sig.r >= kP) return false;
  const std::uint64_t e = challenge(sig.r, message);
  // g^s == r * y^e  (all in Z_p^*).
  const std::uint64_t lhs = pow_mod(kG, sig.s % kOrder);
  const std::uint64_t rhs = mul_mod(sig.r, pow_mod(public_key, e));
  return lhs == rhs;
}

AccountId account_of(std::uint64_t public_key) {
  // UTXO ownership checks re-derive the payer's account id per input per
  // validating node; the derivation is pure, so memoize it. The map is
  // cleared wholesale at the bound, which no bench reaches: the largest,
  // bench_sharding, derives 1,024 keys.
  static std::unordered_map<std::uint64_t, AccountId> memo;
  constexpr std::size_t kMemoCapacity = std::size_t{1} << 16;
  auto it = memo.find(public_key);
  if (it != memo.end()) return it->second;
  if (memo.size() >= kMemoCapacity) memo.clear();
  Writer w;
  w.u64(public_key);
  return memo
      .emplace(public_key, tagged_hash("dlt/account-id",
                                       ByteView{w.bytes().data(), w.size()}))
      .first->second;
}

}  // namespace dlt::crypto
