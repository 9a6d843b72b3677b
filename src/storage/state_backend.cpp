#include "storage/state_backend.hpp"

#include <filesystem>

namespace dlt::storage {

namespace {

constexpr std::uint32_t kFrameMagic = 0x57A7EA4Au;
constexpr std::uint64_t kArenaMagic = 0x44'4C'54'41'52'4E'30'31ULL;  // DLTARN01
constexpr std::uint8_t kTagPut = 0;
constexpr std::uint8_t kTagErase = 1;

}  // namespace

StateBackend::StateBackend(const StorageConfig& config,
                           const std::string& dir, bool truncate) {
  if (config.mode == StorageMode::kMemory) return;
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/state.arena";
  if (!truncate)
    file_ = FrameFile::reopen(path, kArenaMagic, kFrameMagic,
                              [this](const Frame& frame, std::uint64_t) {
                                if (frame.tag == kTagErase)
                                  live_.erase(frame.key);
                                else
                                  live_.insert(frame.key);
                              });
  if (!file_) file_.emplace(path, kArenaMagic, kFrameMagic);
  physical_ = file_->size();
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
  if (file_) file_->sync();
}

void StateBackend::append_frame(std::uint8_t tag, const Hash256& key,
                                ByteView payload) {
  physical_ += frame_size(payload.size());
  if (file_) file_->append(tag, key, payload);
}

}  // namespace dlt::storage
