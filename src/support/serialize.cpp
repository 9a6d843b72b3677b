#include "support/serialize.hpp"

namespace dlt {

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<Byte>(v));
  buf_.push_back(static_cast<Byte>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<Byte>(v >> (8 * i)));
}

void Writer::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<Byte>(v >> (8 * i)));
}

void Writer::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<Byte>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<Byte>(v));
}

void Writer::raw(ByteView bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void Writer::blob(ByteView bytes) {
  varint(bytes.size());
  raw(bytes);
}

void Writer::str(std::string_view s) {
  blob(as_bytes(s));
}

Result<std::uint8_t> Reader::u8() {
  if (remaining() < 1) return make_error("truncated", "u8");
  return data_[pos_++];
}

Result<std::uint16_t> Reader::u16() {
  if (remaining() < 2) return make_error("truncated", "u16");
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i)
    v |= static_cast<std::uint16_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint32_t> Reader::u32() {
  if (remaining() < 4) return make_error("truncated", "u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint64_t> Reader::u64() {
  if (remaining() < 8) return make_error("truncated", "u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

Result<std::uint64_t> Reader::varint() {
  // Only the minimal encoding Writer::varint emits decodes, so one value
  // has one encoding: a zero final byte (after the first) and a tenth byte
  // above 1 (bits past 2^64) are errors.
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    if (remaining() < 1) return make_error("truncated", "varint");
    const Byte b = data_[pos_++];
    if (shift == 63 && b > 1) return make_error("overflow", "varint too long");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) != 0) continue;
    if (b == 0 && shift > 0) return make_error("non-minimal", "varint");
    return v;
  }
}

Result<Bytes> Reader::raw(std::size_t n) {
  if (remaining() < n) return make_error("truncated", "raw");
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<Bytes> Reader::blob() {
  auto len = varint();
  if (!len) return len.error();
  if (*len > remaining()) return make_error("truncated", "blob length");
  return raw(static_cast<std::size_t>(*len));
}

Result<std::string> Reader::str() {
  auto b = blob();
  if (!b) return b.error();
  return std::string(b->begin(), b->end());
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace dlt
