// The on-disk frame format shared by the block log and the state arena.
//
// Every file starts with a 16-byte header:
//   u64 file magic | u32 version (1) | u32 reserved (0)
// followed by frames with a 45-byte head:
//   u32 frame magic | u8 tag | 32B key | u32 payload_len | u32 crc | payload
// with crc = CRC-32 (IEEE 802.3 polynomial, reflected) over
// tag || key || payload_len || payload. Integers are little-endian. The log
// and the arena differ only in their magics and in what the tag means
// (record type / put-or-erase). Both write through FrameFile, and reopen
// treats the first frame that fails these checks as a torn tail and cuts
// the file there.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>

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

inline constexpr std::size_t kFileHeaderBytes = 16;
inline constexpr std::size_t kFrameOverhead = 4 + 1 + 32 + 4 + 4;
inline constexpr std::uint32_t kFormatVersion = 1;

inline constexpr std::size_t frame_size(std::size_t payload_len) {
  return kFrameOverhead + payload_len;
}

struct Frame {
  std::uint8_t tag = 0;
  Hash256 key;
  ByteView payload;  // points into the bytes reopen() read
};

/// One file in this format, appended to through buffered stdio and read
/// back with pread. The block log keeps one per segment, the state arena
/// one in all.
class FrameFile {
 public:
  using Visitor = std::function<void(const Frame& frame, std::uint64_t offset)>;

  /// Creates `path`, emptying any old file, with just the header. Aborts
  /// when the file cannot be created.
  FrameFile(const std::string& path, std::uint64_t file_magic,
            std::uint32_t frame_magic);

  /// Reopens `path`: passes every intact frame and its offset to `visit`
  /// in file order, then cuts the first torn frame (short, bad magic or
  /// bad CRC) and everything after it. A bad header leaves a header-only
  /// file. Appends resume at the end. nullopt when `path` cannot be
  /// opened.
  static std::optional<FrameFile> reopen(const std::string& path,
                                         std::uint64_t file_magic,
                                         std::uint32_t frame_magic,
                                         const Visitor& visit);

  /// Appends one frame. The stream never seeks, so appends share the
  /// stdio buffer instead of costing one write(2) each.
  void append(std::uint8_t tag, const Hash256& key, ByteView payload);
  /// `len` bytes at `offset`, read with pread after flushing appends.
  Bytes read(std::uint64_t offset, std::size_t len) const;
  /// Flushes and fsyncs what was written since the last sync.
  void sync();

  /// Header + frames: the file's length whenever it is flushed.
  std::uint64_t size() const { return size_; }
  /// Set by reopen(): the header or a frame was bad, and the bytes cut.
  bool torn() const { return torn_; }
  std::uint64_t cut_bytes() const { return cut_bytes_; }

 private:
  struct Closer {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };

  FrameFile(std::FILE* file, const std::string& path,
            std::uint32_t frame_magic);

  std::unique_ptr<std::FILE, Closer> file_;
  std::string path_;
  std::uint32_t frame_magic_;
  std::uint64_t size_ = kFileHeaderBytes;
  bool dirty_ = false;
  bool torn_ = false;
  std::uint64_t cut_bytes_ = 0;
};

}  // namespace dlt::storage
