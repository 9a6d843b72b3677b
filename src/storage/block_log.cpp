#include "storage/block_log.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdio>
#include <filesystem>

namespace dlt::storage {

namespace {

constexpr std::uint32_t kFrameMagic = 0xD17B10C5u;
constexpr std::uint64_t kSegmentMagic = 0x44'4C'54'4C'4F'47'30'31ULL;  // DLTLOG01

}  // namespace

BlockLog::BlockLog(const StorageConfig& config, std::string dir,
                   bool truncate)
    : disk_(config.mode == StorageMode::kDisk),
      dir_(std::move(dir)),
      segment_bytes_(config.segment_bytes) {
  if (disk_) {
    assert(!dir_.empty());
    std::filesystem::create_directories(dir_);
  }
  if (truncate || !disk_)
    open_fresh();
  else
    recover();
}

std::string BlockLog::segment_path(std::uint32_t index) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.dlog", index);
  return dir_ + "/" + name;
}

void BlockLog::open_fresh() {
  files_.clear();
  if (disk_) remove_segment_files(0);
  segments_.clear();
  catalog_.clear();
  next_seq_ = 0;
  physical_bytes_ = 0;
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
  if (disk_)
    files_.emplace_back(
        segment_path(static_cast<std::uint32_t>(segments_.size())),
        kSegmentMagic, kFrameMagic);
  segments_.push_back(kFileHeaderBytes);
  physical_bytes_ += kFileHeaderBytes;
}

BlockLog::Entry BlockLog::place(std::size_t payload_len) {
  // Rotation is pure arithmetic on appended bytes: a frame that would push
  // a non-header-only segment past segment_bytes starts the next one.
  // Oversized frames land alone in their own segment.
  const std::uint64_t frame_bytes = frame_size(payload_len);
  if (segments_.back() > kFileHeaderBytes &&
      segments_.back() + frame_bytes > segment_bytes_)
    new_segment();
  const Entry at{static_cast<std::uint32_t>(segments_.size() - 1),
                 segments_.back(), static_cast<std::uint32_t>(payload_len),
                 0};
  segments_.back() += frame_bytes;
  physical_bytes_ += frame_bytes;
  return at;
}

void BlockLog::add(RecordType type, const Hash256& key,
                   std::size_t payload_len) {
  Entry e = place(payload_len);
  e.seq = next_seq_++;
  catalog_[CatalogKey{type, key}] = e;
}

void BlockLog::write(RecordType type, const Hash256& key, ByteView payload) {
  if (disk_)
    files_.back().append(static_cast<std::uint8_t>(type), key, payload);
}

void BlockLog::append(RecordType type, const Hash256& key, ByteView payload) {
  assert(type != RecordType::kTombstone);
  add(type, key, payload.size());
  write(type, key, payload);
}

bool BlockLog::erase(RecordType type, const Hash256& key) {
  const auto it = catalog_.find(CatalogKey{type, key});
  if (it == catalog_.end()) return false;
  catalog_.erase(it);
  const Byte target = static_cast<Byte>(type);
  place(sizeof(target));
  write(RecordType::kTombstone, key, ByteView{&target, 1});
  return true;
}

bool BlockLog::contains(RecordType type, const Hash256& key) const {
  return catalog_.count(CatalogKey{type, key}) > 0;
}

Bytes BlockLog::read_at(const Entry& e) const {
  return files_[e.segment].read(e.offset + kFrameOverhead, e.payload_len);
}

std::optional<Bytes> BlockLog::read(RecordType type, const Hash256& key) const {
  if (!disk_) return std::nullopt;
  const auto it = catalog_.find(CatalogKey{type, key});
  if (it == catalog_.end()) return std::nullopt;
  return read_at(it->second);
}

void BlockLog::for_each(const std::function<void(RecordType, const Hash256&,
                                                 ByteView)>& fn) const {
  if (!disk_) return;
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
  // rebuild fresh segments from it. Only disk mode has payloads to copy;
  // the record lengths alone drive the same arithmetic in memory mode.
  std::vector<std::pair<CatalogKey, Entry>> live(catalog_.begin(),
                                                 catalog_.end());
  std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
    return a.second.seq < b.second.seq;
  });
  std::vector<Bytes> payloads;
  if (disk_) {
    payloads.reserve(live.size());
    for (const auto& [ck, e] : live) payloads.push_back(read_at(e));
  }

  open_fresh();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const CatalogKey& ck = live[i].first;
    add(ck.type, ck.key, live[i].second.payload_len);
    if (disk_) write(ck.type, ck.key, payloads[i]);
  }
  return before - physical_bytes_;
}

void BlockLog::sync() {
  for (FrameFile& file : files_) file.sync();
}

void BlockLog::recover() {
  for (std::uint32_t index = 0;; ++index) {
    auto file = FrameFile::reopen(
        segment_path(index), kSegmentMagic, kFrameMagic,
        [&](const Frame& frame, std::uint64_t offset) {
          const auto type = static_cast<RecordType>(frame.tag);
          if (type != RecordType::kTombstone) {
            catalog_[CatalogKey{type, frame.key}] =
                Entry{index, offset,
                      static_cast<std::uint32_t>(frame.payload.size()),
                      next_seq_++};
          } else if (frame.payload.size() == 1) {
            catalog_.erase(CatalogKey{
                static_cast<RecordType>(frame.payload[0]), frame.key});
          }
        });
    if (!file) break;
    truncated_tail_bytes_ += file->cut_bytes();
    segments_.push_back(file->size());
    physical_bytes_ += file->size();
    files_.push_back(std::move(*file));
    // A torn header or frame (partial append, bit rot) ends the log here.
    if (files_.back().torn()) break;
  }
  // Segments after a torn one, or after a gap in the numbering, are
  // unreachable: delete them so the files match physical_bytes() and a
  // second reopen cannot load them again.
  truncated_tail_bytes_ +=
      remove_segment_files(static_cast<std::uint32_t>(segments_.size()));

  if (segments_.empty())
    open_fresh();
  else
    recovered_records_ = catalog_.size();
}

}  // namespace dlt::storage
