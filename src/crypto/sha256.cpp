#include "crypto/sha256.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "crypto/sha256_compress.hpp"

#ifdef DLT_SHA256_SHANI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dlt::crypto {
namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable_block(std::uint32_t state[8], const Byte* p) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
           (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(p[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

std::uint32_t to_big_endian(std::uint32_t x) {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap32(x);
  return x;
}

std::uint64_t to_big_endian(std::uint64_t x) {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap64(x);
  return x;
}

}  // namespace

void sha256_compress_portable(std::uint32_t state[8], const Byte* data,
                              std::size_t blocks) {
  for (std::size_t i = 0; i < blocks; ++i)
    compress_portable_block(state, data + 64 * i);
}

#ifdef DLT_SHA256_SHANI
// Intel's SHA extensions keep the working variables as two lanes of four,
// ABEF and CDGH: each sha256rnds2 runs two rounds, and sha256msg1/msg2
// extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_compress_shani(
    std::uint32_t state[8], const Byte* data, std::size_t blocks) {
  // Byte order within each 32-bit word: the message is big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL,
                                       0x0405060700010203ULL);
  // state[0..3] = ABCD, state[4..7] = EFGH  ->  ABEF, CDGH.
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j] holds schedule words 4g..4g+3 for the group g with g % 4 == j.
    // Fully unrolled, so every index is a constant and w stays in registers.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& cur = w[g & 3];
      if (g < 4) {
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      } else {
        const __m128i prev = w[(g + 3) & 3];
        cur = _mm_sha256msg1_epu32(cur, w[(g + 1) & 3]);
        cur = _mm_add_epi32(cur, _mm_alignr_epi8(prev, w[(g + 2) & 3], 4));
        cur = _mm_sha256msg2_epu32(cur, prev);
      }
      const __m128i wk = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF, CDGH  ->  ABCD, EFGH.
  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}
#endif

bool sha256_shani_supported() {
#ifdef DLT_SHA256_SHANI
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
#else
  return false;
#endif
}

Sha256Compress sha256_compress() {
  // A function-local static, not a namespace-scope one: it is initialised
  // on first use, whatever the order of static initialisation.
  static const Sha256Compress chosen = [] {
#ifdef DLT_SHA256_SHANI
    if (sha256_shani_supported()) return sha256_compress_shani;
#endif
    return sha256_compress_portable;
  }();
  return chosen;
}

Sha256::Sha256() {
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::update(ByteView data) {
  assert(!finalized_);
  if (data.empty()) return;
  total_len_ += data.size();
  const Byte* p = data.data();
  std::size_t n = data.size();
  if (buf_len_ > 0) {
    const std::size_t take = std::min(n, 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < 64) return;
    sha256_compress()(h_, buf_, 1);
    buf_len_ = 0;
  }
  if (const std::size_t blocks = n / 64; blocks > 0) {
    sha256_compress()(h_, p, blocks);
    p += 64 * blocks;
    n -= 64 * blocks;
  }
  if (n > 0) {
    std::memcpy(buf_, p, n);
    buf_len_ = n;
  }
}

Hash256 Sha256::finalize() {
  assert(!finalized_);
  finalized_ = true;

  // The buffered tail, 0x80, zeros, then the big-endian bit length
  // (FIPS 180-4 §5.1.1): one block when the tail leaves room for the
  // 9 bytes of padding, else two, in one compress call.
  Byte pad[128];
  const std::size_t end = buf_len_ < 56 ? 64 : 128;
  std::memcpy(pad, buf_, buf_len_);
  pad[buf_len_] = 0x80;
  std::memset(pad + buf_len_ + 1, 0, end - 8 - (buf_len_ + 1));
  const std::uint64_t bit_len = to_big_endian(total_len_ * 8);
  std::memcpy(pad + end - 8, &bit_len, 8);
  sha256_compress()(h_, pad, end / 64);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t word = to_big_endian(h_[i]);
    std::memcpy(out.v.data() + 4 * i, &word, 4);
  }
  return out;
}

Sha256Midstate Sha256::midstate() const {
  assert(!finalized_);
  Sha256Midstate m;
  std::memcpy(m.h, h_, sizeof(h_));
  std::memcpy(m.buf, buf_, sizeof(buf_));
  m.buf_len = buf_len_;
  m.total_len = total_len_;
  return m;
}

Sha256 Sha256::from_midstate(const Sha256Midstate& m) {
  Sha256 ctx;
  std::memcpy(ctx.h_, m.h, sizeof(ctx.h_));
  std::memcpy(ctx.buf_, m.buf, sizeof(ctx.buf_));
  ctx.buf_len_ = m.buf_len;
  ctx.total_len_ = m.total_len;
  return ctx;
}

Hash256 Sha256::digest(ByteView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Hash256 sha256d(ByteView data) {
  const Hash256 first = Sha256::digest(data);
  return Sha256::digest(first.view());
}

}  // namespace dlt::crypto
