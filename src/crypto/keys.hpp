// Account keys and signatures.
//
// Real DLTs sign with ECDSA (Bitcoin/Ethereum) or ed25519 (Nano). For the
// simulation we implement a structurally real Schnorr signature over the
// multiplicative group of Z_p with toy parameters (p = 2^61 - 1): key
// generation, signing and verification follow the textbook scheme
//   pub y = g^x,  sign: r = g^k, e = H(r || m), s = k + x*e,
//   verify: g^s == r * y^e,
// so the validation code paths (including rejection of forged/tampered
// signatures) are exercised exactly as in the real systems. The parameters
// are NOT cryptographically secure; DESIGN.md documents this substitution --
// none of the paper's comparisons attack the signature scheme.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "crypto/hash.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace dlt::crypto {

/// Account identifier: tagged hash of the public key (as in Ethereum
/// addresses / Nano accounts).
using AccountId = Hash256;

struct Signature {
  std::uint64_t r = 0;  // commitment g^k
  std::uint64_t s = 0;  // response k + x*e
  auto operator<=>(const Signature&) const = default;

  static constexpr std::size_t kSerializedSize = 16;
};

class KeyPair {
 public:
  /// Derives a keypair from an rng (deterministic given the rng state).
  static KeyPair generate(Rng& rng);

  /// Deterministic keypair from a seed; handy for reproducible fixtures.
  static KeyPair from_seed(std::uint64_t seed);

  std::uint64_t public_key() const { return pub_; }
  AccountId account_id() const;

  Signature sign(ByteView message, Rng& rng) const;

 private:
  KeyPair(std::uint64_t priv, std::uint64_t pub) : priv_(priv), pub_(pub) {}
  std::uint64_t priv_;
  std::uint64_t pub_;
};

/// Verifies `sig` over `message` under `public_key`.
bool verify(std::uint64_t public_key, ByteView message, const Signature& sig);

/// Account id of a bare public key. Memoized in a process-wide map.
AccountId account_of(std::uint64_t public_key);

}  // namespace dlt::crypto
