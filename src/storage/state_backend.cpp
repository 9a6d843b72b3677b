#include "storage/state_backend.hpp"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "storage/frame.hpp"
#include "support/log.hpp"

namespace dlt::storage {

namespace {

constexpr std::uint32_t kFrameMagic = 0x57A7EA4Au;
constexpr std::uint64_t kArenaMagic = 0x44'4C'54'41'52'4E'30'31ULL;  // DLTARN01
constexpr std::uint8_t kTagPut = 0;
constexpr std::uint8_t kTagErase = 1;

}  // namespace

StateBackend::StateBackend(const StorageConfig& config,
                           const std::string& dir, bool truncate) {
  if (config.mode == StorageMode::kMemory) {
    physical_ = kFileHeaderBytes;
    return;
  }
  std::filesystem::create_directories(dir);
  path_ = dir + "/state.arena";
  if (truncate)
    start_fresh();
  else
    recover();
}

StateBackend::~StateBackend() {
  if (file_) std::fclose(file_);
}

void StateBackend::put(const Hash256& key, ByteView value) {
  live_.insert(key);
  append_frame(kTagPut, key, value);
}

bool StateBackend::erase(const Hash256& key) {
  if (live_.erase(key) == 0) return false;
  append_frame(kTagErase, key, {});
  return true;
}

void StateBackend::sync() {
  if (!file_) return;
  std::fflush(file_);
  ::fsync(::fileno(file_));
}

void StateBackend::append_frame(std::uint8_t tag, const Hash256& key,
                                ByteView payload) {
  physical_ += frame_size(payload.size());
  if (!file_) return;
  Byte head[kFrameOverhead];
  encode_frame_head(head, kFrameMagic, tag, key, payload);
  std::fwrite(head, 1, sizeof(head), file_);
  if (!payload.empty())
    std::fwrite(payload.data(), 1, payload.size(), file_);
}

void StateBackend::start_fresh() {
  if (file_) std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (!file_) {
    DLT_LOG_ERROR("storage: cannot create %s", path_.c_str());
    std::abort();
  }
  Byte header[kFileHeaderBytes];
  encode_file_header(header, kArenaMagic);
  std::fwrite(header, 1, sizeof(header), file_);
  live_.clear();
  physical_ = kFileHeaderBytes;
}

void StateBackend::recover() {
  file_ = std::fopen(path_.c_str(), "rb+");
  if (!file_) {
    start_fresh();
    return;
  }
  const Bytes data = read_file(file_);
  if (!has_file_header(data, kArenaMagic)) {
    start_fresh();
    return;
  }
  std::uint64_t pos = kFileHeaderBytes;
  while (const auto frame = read_frame(data, pos, kFrameMagic)) {
    if (frame->tag == kTagErase)
      live_.erase(frame->key);
    else
      live_.insert(frame->key);
    pos += frame_size(frame->payload.size());
  }
  physical_ = pos;
  // Anything past the first torn frame is dropped, so appends resume on
  // a clean frame boundary.
  if (pos != data.size() &&
      ::ftruncate(::fileno(file_), static_cast<off_t>(pos)) != 0)
    DLT_LOG_WARN("storage: truncating the torn tail of %s failed",
                 path_.c_str());
  std::fseek(file_, static_cast<long>(pos), SEEK_SET);
}

}  // namespace dlt::storage
