// Compact binary serialization.
//
// Two jobs in this codebase:
//  1. Canonical byte encodings that get hashed (block headers, transactions)
//     -- these must be deterministic and stable.
//  2. Byte-accounting for the ledger-size experiments (paper §V): every
//     ledger entry reports its serialized size, and the growth curves in
//     bench_ledger_size integrate those sizes.
//
// Encoding rules: fixed-width integers are little-endian; variable-length
// integers use LEB128-style varints; byte strings are varint length-prefixed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/bytes.hpp"
#include "support/result.hpp"

namespace dlt {

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void varint(std::uint64_t v);
  void raw(ByteView bytes);
  void blob(ByteView bytes);  // varint length prefix + bytes
  void str(std::string_view s);

  template <std::size_t N>
  void fixed(const FixedBytes<N>& b) {
    raw(b.view());
  }

  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

class Reader {
 public:
  explicit Reader(ByteView data) : data_(data) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::uint64_t> varint();
  Result<Bytes> raw(std::size_t n);
  Result<Bytes> blob();
  Result<std::string> str();

  template <std::size_t N>
  Result<FixedBytes<N>> fixed() {
    auto r = raw(N);
    if (!r) return r.error();
    return FixedBytes<N>::from_view(*r);
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  ByteView data_;
  std::size_t pos_ = 0;
};

/// Size in bytes of varint(v) without materializing it.
std::size_t varint_size(std::uint64_t v);

/// Whether static_cast<std::uint64_t>(v) is defined: false for NaN, the
/// infinities and values whose truncation lies outside [0, 2^64). Hash
/// encodings truncate doubles to u64 this way, so a decoder that bit-casts
/// such a double from untrusted bytes rejects the values that fail here.
inline bool fits_u64(double v) {
  return v > -1.0 && v < 18446744073709551616.0;  // 2^64
}

}  // namespace dlt
