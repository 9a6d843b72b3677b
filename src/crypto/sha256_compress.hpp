// The SHA-256 compression functions behind `Sha256` (FIPS 180-4 §6.2.2).
//
// Private to src/crypto: only sha256.cpp, the tests and bench_hotpath
// include it, so each compress can be run directly and checked against the
// other. Both take the eight chaining words and `blocks` consecutive
// 64-byte message blocks, and leave the updated chaining words in `state`.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/bytes.hpp"

namespace dlt::crypto {

using Sha256Compress = void (*)(std::uint32_t state[8], const Byte* data,
                                std::size_t blocks);

/// Plain C++ rounds: the fallback on any CPU, and the reference that the
/// tests compare the hardware path against.
void sha256_compress_portable(std::uint32_t state[8], const Byte* data,
                              std::size_t blocks);

#if defined(__x86_64__) || defined(__i386__)
#define DLT_SHA256_SHANI 1
/// The x86 SHA extensions (SHA-NI) with SSE4.1. Call it only when
/// `sha256_shani_supported()` is true.
void sha256_compress_shani(std::uint32_t state[8], const Byte* data,
                           std::size_t blocks);
#endif

/// True when this build has the SHA-NI compress and CPUID reports both
/// SHA (leaf 7, EBX bit 29) and SSE4.1 (leaf 1, ECX bit 19).
bool sha256_shani_supported();

/// The compress `Sha256` runs: the SHA-NI one when supported, else the
/// portable one. Chosen on the first call, so a digest taken during
/// static initialisation also gets a valid path.
Sha256Compress sha256_compress();

}  // namespace dlt::crypto
