// The on-disk frame format shared by the block log and the state arena.
//
// Every file starts with a 16-byte header:
//   u64 file magic | u32 version (1) | u32 reserved (0)
// followed by frames with a 45-byte head:
//   u32 frame magic | u8 tag | 32B key | u32 payload_len | u32 crc | payload
// with crc = CRC-32 (IEEE 802.3 polynomial, reflected) over
// tag || key || payload_len || payload. Integers are little-endian. The log
// and the arena differ only in their magics and in what the tag means
// (record type / put-or-erase). Reopen treats the first frame read_frame
// rejects as a torn tail and truncates there.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>

#include "support/bytes.hpp"

namespace dlt::storage {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table =
    make_crc32_table();

}  // namespace detail

/// Incremental update: feed successive chunks with the running value
/// (start from crc32_init()), finish with crc32_final().
inline std::uint32_t crc32_update(std::uint32_t crc, ByteView data) {
  for (Byte b : data)
    crc = detail::kCrc32Table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  return crc;
}

inline constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }
inline constexpr std::uint32_t crc32_final(std::uint32_t crc) {
  return crc ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(ByteView data) {
  return crc32_final(crc32_update(crc32_init(), data));
}

inline void put_u32(Byte* p, std::uint32_t v) {
  p[0] = static_cast<Byte>(v);
  p[1] = static_cast<Byte>(v >> 8);
  p[2] = static_cast<Byte>(v >> 16);
  p[3] = static_cast<Byte>(v >> 24);
}

inline std::uint32_t get_u32(const Byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void put_u64(Byte* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint64_t get_u64(const Byte* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 32 + 4 + 4;
inline constexpr std::uint32_t kFormatVersion = 1;

inline constexpr std::size_t frame_size(std::size_t payload_len) {
  return kFrameOverhead + payload_len;
}

inline void encode_file_header(Byte* out, std::uint64_t file_magic) {
  put_u64(out, file_magic);
  put_u32(out + 8, kFormatVersion);
  put_u32(out + 12, 0);
}

inline bool has_file_header(ByteView data, std::uint64_t file_magic) {
  return data.size() >= kFileHeaderBytes &&
         get_u64(data.data()) == file_magic;
}

inline std::uint32_t frame_crc(std::uint8_t tag, const Hash256& key,
                               ByteView payload) {
  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, ByteView{&tag, 1});
  crc = crc32_update(crc, key.view());
  Byte len[4];
  put_u32(len, static_cast<std::uint32_t>(payload.size()));
  crc = crc32_update(crc, ByteView{len, 4});
  crc = crc32_update(crc, payload);
  return crc32_final(crc);
}

/// Writes the 45-byte head of the frame that carries `payload`.
inline void encode_frame_head(Byte* head, std::uint32_t frame_magic,
                              std::uint8_t tag, const Hash256& key,
                              ByteView payload) {
  put_u32(head, frame_magic);
  head[4] = tag;
  std::memcpy(head + 5, key.data(), 32);
  put_u32(head + 37, static_cast<std::uint32_t>(payload.size()));
  put_u32(head + 41, frame_crc(tag, key, payload));
}

struct Frame {
  std::uint8_t tag = 0;
  Hash256 key;
  ByteView payload;  // points into the buffer read_frame was given
};

/// Decodes the frame at `pos` in `data`, or nullopt when it is torn: the
/// head or payload runs past the end, or the magic or CRC does not match.
/// The next frame starts at pos + frame_size(payload.size()).
inline std::optional<Frame> read_frame(ByteView data, std::uint64_t pos,
                                       std::uint32_t frame_magic) {
  if (pos > data.size() || data.size() - pos < kFrameOverhead)
    return std::nullopt;
  const Byte* p = data.data() + pos;
  if (get_u32(p) != frame_magic) return std::nullopt;
  const std::uint32_t len = get_u32(p + 37);
  if (data.size() - pos - kFrameOverhead < len) return std::nullopt;
  Frame frame{p[4], Hash256::from_view(ByteView{p + 5, 32}),
              ByteView{p + kFrameOverhead, len}};
  if (frame_crc(frame.tag, frame.key, frame.payload) != get_u32(p + 41))
    return std::nullopt;
  return frame;
}

/// The whole of stdio `file`, read from the start.
inline Bytes read_file(std::FILE* file) {
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  Bytes data(static_cast<std::size_t>(size > 0 ? size : 0));
  std::fseek(file, 0, SEEK_SET);
  if (!data.empty())
    data.resize(std::fread(data.data(), 1, data.size(), file));
  return data;
}

}  // namespace dlt::storage
