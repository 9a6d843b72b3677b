#include "storage/frame.hpp"

#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "support/log.hpp"

namespace dlt::storage {

namespace {

void put_u32(Byte* p, std::uint32_t v) {
  p[0] = static_cast<Byte>(v);
  p[1] = static_cast<Byte>(v >> 8);
  p[2] = static_cast<Byte>(v >> 16);
  p[3] = static_cast<Byte>(v >> 24);
}

std::uint32_t get_u32(const Byte* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(Byte* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const Byte* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

void write_header(std::FILE* file, std::uint64_t file_magic) {
  Byte header[kFileHeaderBytes];
  put_u64(header, file_magic);
  put_u32(header + 8, kFormatVersion);
  put_u32(header + 12, 0);
  std::fwrite(header, 1, sizeof(header), file);
}

std::uint32_t frame_crc(std::uint8_t tag, const Hash256& key,
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

/// Decodes the frame at `pos` in `data`, or nullopt when it is torn: the
/// head or payload runs past the end, or the magic or CRC does not match.
std::optional<Frame> read_frame(ByteView data, std::uint64_t pos,
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
Bytes read_file(std::FILE* file) {
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  Bytes data(static_cast<std::size_t>(size > 0 ? size : 0));
  std::fseek(file, 0, SEEK_SET);
  if (!data.empty())
    data.resize(std::fread(data.data(), 1, data.size(), file));
  return data;
}

}  // namespace

FrameFile::FrameFile(std::FILE* file, const std::string& path,
                     std::uint32_t frame_magic)
    : file_(file), path_(path), frame_magic_(frame_magic) {}

FrameFile::FrameFile(const std::string& path, std::uint64_t file_magic,
                     std::uint32_t frame_magic)
    : FrameFile(std::fopen(path.c_str(), "wb+"), path, frame_magic) {
  if (!file_) {
    DLT_LOG_ERROR("storage: cannot create %s", path.c_str());
    std::abort();
  }
  write_header(file_.get(), file_magic);
  dirty_ = true;
}

std::optional<FrameFile> FrameFile::reopen(const std::string& path,
                                           std::uint64_t file_magic,
                                           std::uint32_t frame_magic,
                                           const Visitor& visit) {
  std::FILE* raw = std::fopen(path.c_str(), "rb+");
  if (!raw) return std::nullopt;
  FrameFile out(raw, path, frame_magic);
  const Bytes data = read_file(raw);
  std::uint64_t end = kFileHeaderBytes;
  const bool header_ok = data.size() >= kFileHeaderBytes &&
                         get_u64(data.data()) == file_magic;
  if (header_ok) {
    while (const auto frame = read_frame(data, end, frame_magic)) {
      visit(*frame, end);
      end += frame_size(frame->payload.size());
    }
  } else {
    // A header that never made it to disk leaves nothing recoverable.
    std::fseek(raw, 0, SEEK_SET);
    write_header(raw, file_magic);
    std::fflush(raw);
  }
  out.torn_ = !header_ok || end != data.size();
  if (data.size() > end) {
    // Drop the torn tail so appends start from a clean frame boundary.
    out.cut_bytes_ = data.size() - end;
    if (::ftruncate(::fileno(raw), static_cast<off_t>(end)) != 0)
      DLT_LOG_WARN("storage: truncating the torn tail of %s failed",
                   path.c_str());
  }
  std::fseek(raw, 0, SEEK_END);
  out.size_ = end;
  return out;
}

void FrameFile::append(std::uint8_t tag, const Hash256& key,
                       ByteView payload) {
  Byte head[kFrameOverhead];
  put_u32(head, frame_magic_);
  head[4] = tag;
  std::memcpy(head + 5, key.data(), 32);
  put_u32(head + 37, static_cast<std::uint32_t>(payload.size()));
  put_u32(head + 41, frame_crc(tag, key, payload));
  std::fwrite(head, 1, sizeof(head), file_.get());
  if (!payload.empty())
    std::fwrite(payload.data(), 1, payload.size(), file_.get());
  size_ += frame_size(payload.size());
  dirty_ = true;
}

Bytes FrameFile::read(std::uint64_t offset, std::size_t len) const {
  // The fd sees only flushed appends; pread leaves the stream at the end.
  std::fflush(file_.get());
  Bytes out(len);
  if (::pread(::fileno(file_.get()), out.data(), len,
              static_cast<off_t>(offset)) != static_cast<ssize_t>(len)) {
    DLT_LOG_ERROR("storage: short read from %s", path_.c_str());
    std::abort();
  }
  return out;
}

void FrameFile::sync() {
  if (!dirty_) return;
  std::fflush(file_.get());
  ::fsync(::fileno(file_.get()));
  dirty_ = false;
}

}  // namespace dlt::storage
