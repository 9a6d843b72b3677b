#include "storage/block_log.hpp"

#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstring>
#include <filesystem>

#include "support/log.hpp"

namespace dlt::storage {

namespace {

constexpr std::uint32_t kFrameMagic = 0xD17B10C5u;
constexpr std::uint64_t kSegmentMagic = 0x44'4C'54'4C'4F'47'30'31ULL;  // DLTLOG01

}  // namespace

BlockLog::BlockLog(const StorageConfig& config, std::string dir,
                   bool truncate)
    : mode_(config.mode),
      dir_(std::move(dir)),
      segment_bytes_(config.segment_bytes) {
  if (mode_ == StorageMode::kDisk) {
    assert(!dir_.empty());
    std::filesystem::create_directories(dir_);
  }
  if (truncate || mode_ == StorageMode::kMemory)
    open_fresh();
  else
    recover();
}

BlockLog::~BlockLog() { close_segments(); }

std::string BlockLog::segment_path(std::uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.dlog", index);
  return dir_ + "/" + name;
}

void BlockLog::open_fresh() {
  if (mode_ == StorageMode::kDisk) remove_segment_files(0);
  segments_.clear();
  catalog_.clear();
  next_seq_ = 0;
  physical_bytes_ = 0;
  live_bytes_ = 0;
  new_segment();
}

std::uint64_t BlockLog::remove_segment_files(std::uint32_t first) {
  std::uint64_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint32_t index = 0;
    const char* digits = name.data() + 4;
    if (name.size() != 15 || name.rfind("seg-", 0) != 0 ||
        name.compare(10, 5, ".dlog") != 0 ||
        std::from_chars(digits, digits + 6, index).ptr != digits + 6 ||
        index < first)
      continue;
    const std::uintmax_t size = entry.file_size(ec);
    if (!ec) removed += size;
    std::filesystem::remove(entry.path(), ec);
  }
  return removed;
}

void BlockLog::new_segment() {
  Segment seg;
  if (mode_ == StorageMode::kMemory) {
    seg.data.resize(kFileHeaderBytes);
    encode_file_header(seg.data.data(), kSegmentMagic);
  } else {
    const std::string path =
        segment_path(static_cast<std::uint32_t>(segments_.size()));
    seg.file = std::fopen(path.c_str(), "wb+");
    if (!seg.file) {
      DLT_LOG_ERROR("storage: cannot create %s", path.c_str());
      std::abort();
    }
    Byte header[kFileHeaderBytes];
    encode_file_header(header, kSegmentMagic);
    std::fwrite(header, 1, sizeof(header), seg.file);
  }
  segments_.push_back(std::move(seg));
  physical_bytes_ += kFileHeaderBytes;
}

void BlockLog::rotate_if_needed(std::size_t frame_bytes) {
  // Rotation is pure arithmetic on appended bytes: a frame that would push
  // a non-header-only segment past segment_bytes starts the next one.
  // Oversized frames land alone in their own segment.
  const Segment& cur = segments_.back();
  if (cur.bytes > kFileHeaderBytes &&
      cur.bytes + frame_bytes > segment_bytes_)
    new_segment();
}

void BlockLog::append_frame(RecordType type, const Hash256& key,
                            ByteView payload) {
  const std::size_t frame_bytes = frame_size(payload.size());
  rotate_if_needed(frame_bytes);
  Segment& seg = segments_.back();

  Byte head[kFrameOverhead];
  encode_frame_head(head, kFrameMagic, static_cast<std::uint8_t>(type), key,
                    payload);

  if (mode_ == StorageMode::kMemory) {
    seg.data.insert(seg.data.end(), head, head + sizeof(head));
    seg.data.insert(seg.data.end(), payload.begin(), payload.end());
  } else {
    // The stream stays at the end of the file: read_at reads with pread
    // and recover() seeks to the end once, so no per-append seek (which
    // would flush the stdio buffer, one write(2) per record).
    std::fwrite(head, 1, sizeof(head), seg.file);
    if (!payload.empty())
      std::fwrite(payload.data(), 1, payload.size(), seg.file);
    seg.dirty = true;
  }
  seg.bytes += frame_bytes;
  physical_bytes_ += frame_bytes;
}

void BlockLog::append(RecordType type, const Hash256& key, ByteView payload) {
  assert(type != RecordType::kTombstone);
  const CatalogKey ck{type, key};
  const std::size_t frame_bytes = frame_size(payload.size());

  // Record where this frame will start *after* any rotation.
  rotate_if_needed(frame_bytes);
  const std::uint32_t segment =
      static_cast<std::uint32_t>(segments_.size() - 1);
  const std::uint64_t offset = segments_.back().bytes;
  append_frame(type, key, payload);

  auto [it, inserted] = catalog_.try_emplace(ck);
  if (!inserted) live_bytes_ -= frame_size(it->second.payload_len);
  it->second = Entry{segment, offset,
                     static_cast<std::uint32_t>(payload.size()), next_seq_++};
  live_bytes_ += frame_bytes;
}

bool BlockLog::erase(RecordType type, const Hash256& key) {
  const auto it = catalog_.find(CatalogKey{type, key});
  if (it == catalog_.end()) return false;
  live_bytes_ -= frame_size(it->second.payload_len);
  catalog_.erase(it);
  const Byte target = static_cast<Byte>(type);
  append_frame(RecordType::kTombstone, key, ByteView{&target, 1});
  return true;
}

bool BlockLog::contains(RecordType type, const Hash256& key) const {
  return catalog_.count(CatalogKey{type, key}) > 0;
}

Bytes BlockLog::read_at(const Entry& e) const {
  const Segment& seg = segments_[e.segment];
  Bytes out(e.payload_len);
  const std::uint64_t payload_offset = e.offset + kFrameOverhead;
  if (mode_ == StorageMode::kMemory) {
    std::memcpy(out.data(), seg.data.data() + payload_offset, e.payload_len);
  } else {
    // Flush pending appends so the fd sees them; pread leaves the stream
    // position at the end.
    std::fflush(seg.file);
    if (::pread(::fileno(seg.file), out.data(), e.payload_len,
                static_cast<off_t>(payload_offset)) !=
        static_cast<ssize_t>(e.payload_len)) {
      DLT_LOG_ERROR("storage: short read from %s",
                    segment_path(e.segment).c_str());
      std::abort();
    }
  }
  return out;
}

std::optional<Bytes> BlockLog::read(RecordType type, const Hash256& key) const {
  const auto it = catalog_.find(CatalogKey{type, key});
  if (it == catalog_.end()) return std::nullopt;
  return read_at(it->second);
}

void BlockLog::for_each(const std::function<void(RecordType, const Hash256&,
                                                 ByteView)>& fn) const {
  std::vector<const std::pair<const CatalogKey, Entry>*> live;
  live.reserve(catalog_.size());
  for (const auto& kv : catalog_) live.push_back(&kv);
  std::sort(live.begin(), live.end(), [](const auto* a, const auto* b) {
    return a->second.seq < b->second.seq;
  });
  for (const auto* kv : live) {
    const Bytes payload = read_at(kv->second);
    fn(kv->first.type, kv->first.key, payload);
  }
}

std::uint64_t BlockLog::compact() {
  const std::uint64_t before = physical_bytes_;

  // Snapshot the live set in append-sequence order (deterministic), then
  // rebuild fresh segments from it.
  struct Live {
    RecordType type;
    Hash256 key;
    Bytes payload;
    std::uint64_t seq;
  };
  std::vector<Live> live;
  live.reserve(catalog_.size());
  for (const auto& [ck, e] : catalog_)
    live.push_back(Live{ck.type, ck.key, read_at(e), e.seq});
  std::sort(live.begin(), live.end(),
            [](const Live& a, const Live& b) { return a.seq < b.seq; });

  close_segments();
  open_fresh();
  for (const Live& rec : live) append(rec.type, rec.key, rec.payload);

  return before - physical_bytes_;
}

void BlockLog::sync() {
  for (Segment& seg : segments_) {
    if (!seg.dirty || !seg.file) continue;
    std::fflush(seg.file);
    ::fsync(::fileno(seg.file));
    seg.dirty = false;
  }
}

void BlockLog::close_segments() {
  for (Segment& seg : segments_) {
    if (seg.file) {
      std::fclose(seg.file);
      seg.file = nullptr;
    }
  }
}

void BlockLog::recover() {
  segments_.clear();
  catalog_.clear();
  next_seq_ = 0;
  physical_bytes_ = 0;
  live_bytes_ = 0;
  recovered_records_ = 0;
  truncated_tail_bytes_ = 0;

  for (std::uint32_t index = 0;; ++index) {
    const std::string path = segment_path(index);
    std::FILE* file = std::fopen(path.c_str(), "rb+");
    if (!file) break;
    const Bytes data = read_file(file);

    Segment seg;
    seg.file = file;
    std::uint64_t used = kFileHeaderBytes;
    const bool header_ok = has_file_header(data, kSegmentMagic);
    if (!header_ok) {
      // A segment whose header never made it to disk holds nothing
      // recoverable; rewrite the header and keep it as the tail.
      std::fseek(file, 0, SEEK_SET);
      Byte header[kFileHeaderBytes];
      encode_file_header(header, kSegmentMagic);
      std::fwrite(header, 1, sizeof(header), file);
    } else {
      while (const auto frame = read_frame(data, used, kFrameMagic)) {
        const auto type = static_cast<RecordType>(frame->tag);
        if (type == RecordType::kTombstone) {
          if (frame->payload.size() == 1)
            catalog_.erase(CatalogKey{
                static_cast<RecordType>(frame->payload[0]), frame->key});
        } else {
          catalog_[CatalogKey{type, frame->key}] =
              Entry{index, used,
                    static_cast<std::uint32_t>(frame->payload.size()),
                    next_seq_++};
        }
        used += frame_size(frame->payload.size());
      }
    }

    // A torn header or frame (partial append, bit rot) ends the log here.
    const bool torn = !header_ok || used != data.size();
    if (torn) {
      if (data.size() > used) truncated_tail_bytes_ += data.size() - used;
      std::fflush(file);
      // Drop the torn tail so future appends start from a clean frame
      // boundary.
      std::error_code ec;
      std::filesystem::resize_file(path, used, ec);
    }
    // Appends resume at the end of what was kept.
    std::fseek(file, 0, SEEK_END);
    seg.bytes = used;
    physical_bytes_ += used;
    segments_.push_back(std::move(seg));
    if (torn) break;
  }
  // Segments after a torn one, or after a gap in the numbering, are
  // unreachable: delete them so the files match physical_bytes() and a
  // second reopen cannot load them again.
  truncated_tail_bytes_ +=
      remove_segment_files(static_cast<std::uint32_t>(segments_.size()));

  if (segments_.empty()) {
    open_fresh();
    return;
  }

  // Live bytes + seq renumbering: walk the catalog once.
  for (const auto& [ck, e] : catalog_)
    live_bytes_ += frame_size(e.payload_len);
  recovered_records_ = catalog_.size();
}

}  // namespace dlt::storage
