// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The compression function runs on the x86 SHA extensions when CPUID
// reports them and in portable C++ otherwise (sha256_compress.hpp); both
// give the same digests.
//
// Every hash in the system -- block ids, transaction ids, Merkle nodes,
// trie nodes, PoW puzzles, account ids -- goes through this implementation,
// exactly as Bitcoin does with SHA-256d (paper §III-A1: "partial hash
// inversion requires that the hash of a block of transactions together with
// a nonce matches a certain pattern").
#pragma once

#include <cstdint>

#include "support/bytes.hpp"

namespace dlt::crypto {

/// Captured intermediate hashing state: the chaining values plus any
/// buffered partial block. Saving the midstate after hashing a common
/// prefix (a PoW payload, a tag preamble) lets many suffixes be hashed
/// without re-processing the prefix -- the same trick Bitcoin miners use
/// for the 80-byte header.
struct Sha256Midstate {
  std::uint32_t h[8];
  Byte buf[64];
  std::size_t buf_len = 0;
  std::uint64_t total_len = 0;
};

class Sha256 {
 public:
  Sha256();

  /// Streaming interface.
  void update(ByteView data);
  Hash256 finalize();

  /// One-shot convenience.
  static Hash256 digest(ByteView data);

  /// Midstate save/restore. `midstate()` snapshots the streaming state
  /// after the updates so far (must not be finalized); `from_midstate()`
  /// resumes from a snapshot, ready for further update()/finalize().
  /// Contexts are also plainly copyable, which is equivalent.
  Sha256Midstate midstate() const;
  static Sha256 from_midstate(const Sha256Midstate& m);

 private:
  std::uint32_t h_[8];
  Byte buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// SHA-256(SHA-256(x)) -- Bitcoin's block/tx hash.
Hash256 sha256d(ByteView data);

}  // namespace dlt::crypto
