// Storage engine: append-only segmented block log + state arena. Covers
// catalog semantics (upsert last-wins, tombstones, compaction), the
// memory/disk accounting parity that underpins the storage determinism
// contract, memory mode holding no record bytes, reopen persistence, crash
// recovery from truncated or corrupted tails, seeded mutation of the
// on-disk frames, and digests that pin every byte written.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "mutation_util.hpp"
#include "storage/block_log.hpp"
#include "storage/config.hpp"
#include "storage/frame.hpp"
#include "storage/ledger_store.hpp"
#include "storage/state_backend.hpp"
#include "support/bytes.hpp"
#include "support/hex.hpp"
#include "support/rng.hpp"

namespace dlt::storage {
namespace {

Hash256 key_of(std::uint8_t tag) {
  Hash256 h;
  h[0] = tag;
  h[31] = static_cast<Byte>(tag ^ 0xFF);
  return h;
}

Bytes payload_of(std::size_t n, std::uint8_t fill) {
  return Bytes(n, fill);
}

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("dlt_storage_test_" + tag + "_" +
            std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

StorageConfig config_for(StorageMode mode,
                         std::size_t segment_bytes = 1u << 20) {
  StorageConfig c;
  c.mode = mode;
  c.segment_bytes = segment_bytes;
  return c;
}

/// Summed sizes of the files in `dir` whose names end in `suffix`.
std::uint64_t file_bytes(const std::filesystem::path& dir,
                         const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += e.file_size();
  }
  return total;
}

// ------------------------------------------------------------ crc32

TEST(Crc32, KnownVectorAndIncremental) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reflected, the check value).
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);

  std::uint32_t crc = crc32_init();
  crc = crc32_update(crc, ByteView{data.data(), 4});
  crc = crc32_update(crc, ByteView{data.data() + 4, 5});
  EXPECT_EQ(crc32_final(crc), 0xCBF43926u);

  EXPECT_EQ(crc32(Bytes{}), 0u);
}

// -------------------------------------------------------- block log

TEST(BlockLog, AppendReadEraseRoundtrip) {
  ScratchDir scratch("roundtrip");
  BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
  const Hash256 a = key_of(1), b = key_of(2);

  log.append(RecordType::kHeader, a, payload_of(100, 0xAA));
  log.append(RecordType::kBody, a, payload_of(300, 0xBB));
  log.append(RecordType::kHeader, b, payload_of(100, 0xCC));

  EXPECT_TRUE(log.contains(RecordType::kHeader, a));
  EXPECT_TRUE(log.contains(RecordType::kBody, a));
  EXPECT_FALSE(log.contains(RecordType::kBody, b));
  EXPECT_EQ(log.live_records(), 3u);

  const auto body = log.read(RecordType::kBody, a);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, payload_of(300, 0xBB));

  EXPECT_TRUE(log.erase(RecordType::kBody, a));
  EXPECT_FALSE(log.erase(RecordType::kBody, a));  // already gone
  EXPECT_FALSE(log.read(RecordType::kBody, a).has_value());
  EXPECT_EQ(log.live_records(), 2u);
}

TEST(BlockLog, UpsertIsLastWinsAndDeadBytesAccrue) {
  ScratchDir scratch("upsert");
  BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
  const Hash256 a = key_of(3);

  log.append(RecordType::kBlock, a, payload_of(64, 0x01));
  EXPECT_EQ(log.physical_bytes(), kFileHeaderBytes + frame_size(64));
  log.append(RecordType::kBlock, a, payload_of(64, 0x02));

  EXPECT_EQ(log.live_records(), 1u);
  // One live frame plus the shadowed one, still on disk as dead bytes.
  EXPECT_EQ(log.physical_bytes(), kFileHeaderBytes + 2 * frame_size(64));
  EXPECT_EQ(*log.read(RecordType::kBlock, a), payload_of(64, 0x02));
}

TEST(BlockLog, RotationBySegmentBytesAndCompaction) {
  // 1 KiB segments; 200-byte payloads (245-byte frames) → 4 per segment.
  ScratchDir scratch("rotation");
  BlockLog log(config_for(StorageMode::kDisk, 1024), scratch.str(), true);
  for (std::uint8_t i = 0; i < 12; ++i)
    log.append(RecordType::kSite, key_of(i), payload_of(200, i));
  EXPECT_EQ(log.segment_count(), 3u);

  // Erase 8 of 12, then compact: live set shrinks to one segment.
  for (std::uint8_t i = 0; i < 8; ++i)
    EXPECT_TRUE(log.erase(RecordType::kSite, key_of(i)));
  const std::uint64_t before = log.physical_bytes();
  const std::uint64_t reclaimed = log.compact();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(log.physical_bytes(), before - reclaimed);
  EXPECT_EQ(log.segment_count(), 1u);
  EXPECT_EQ(log.live_records(), 4u);
  for (std::uint8_t i = 8; i < 12; ++i)
    EXPECT_EQ(*log.read(RecordType::kSite, key_of(i)), payload_of(200, i));
}

TEST(BlockLog, ForEachVisitsLiveRecordsInAppendOrder) {
  ScratchDir scratch("for_each");
  BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
  log.append(RecordType::kBlock, key_of(1), payload_of(8, 1));
  log.append(RecordType::kBlock, key_of(2), payload_of(8, 2));
  log.append(RecordType::kBlock, key_of(3), payload_of(8, 3));
  log.append(RecordType::kBlock, key_of(1), payload_of(8, 9));  // re-append
  log.erase(RecordType::kBlock, key_of(2));

  std::vector<std::uint8_t> seen;
  log.for_each([&](RecordType type, const Hash256& key, ByteView payload) {
    EXPECT_EQ(type, RecordType::kBlock);
    seen.push_back(payload[0]);
    (void)key;
  });
  // key 3 first (older live frame), then key 1's re-append.
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{3, 9}));
}

TEST(BlockLog, MemoryAndDiskAccountingIdentical) {
  ScratchDir scratch("parity");
  BlockLog mem(config_for(StorageMode::kMemory, 2048), "", true);
  BlockLog disk(config_for(StorageMode::kDisk, 2048), scratch.str(), true);

  // Memory mode keeps no payloads, so its compactions rebuild the same
  // segments from record lengths alone; every figure must still match.
  const auto expect_same = [&] {
    EXPECT_EQ(mem.physical_bytes(), disk.physical_bytes());
    EXPECT_EQ(mem.segment_count(), disk.segment_count());
    EXPECT_EQ(mem.live_records(), disk.live_records());
  };
  const auto drive = [](BlockLog& log, std::uint8_t base) {
    std::vector<bool> erased;
    for (std::uint8_t i = 0; i < 20; ++i)
      log.append(RecordType::kHeader, key_of(base + i),
                 payload_of(100 + i * 7, i));
    for (std::uint8_t i = 0; i < 30; i += 3)  // some were never appended
      erased.push_back(log.erase(RecordType::kHeader, key_of(base + i)));
    for (std::uint8_t i = 0; i < 5; ++i)  // upserts, one of an erased key
      log.append(RecordType::kHeader, key_of(base + i + 2),
                 payload_of(50, 0xEE));
    log.append(RecordType::kBody, key_of(base), payload_of(2500, 0xB0));
    return erased;
  };
  EXPECT_EQ(drive(mem, 0), drive(disk, 0));
  expect_same();
  EXPECT_EQ(mem.compact(), disk.compact());
  expect_same();
  EXPECT_GT(disk.segment_count(), 2u);  // the compaction spans segments

  // A second round on the compacted log, then a second compaction.
  EXPECT_EQ(drive(mem, 100), drive(disk, 100));
  expect_same();
  EXPECT_EQ(mem.compact(), disk.compact());
  expect_same();
  EXPECT_EQ(mem.compact(), 0u);  // nothing dead left to reclaim
  EXPECT_EQ(disk.compact(), 0u);
  expect_same();

  // Disk physical accounting equals real file bytes (after flush).
  disk.sync();
  EXPECT_EQ(disk.physical_bytes(), file_bytes(scratch.path, ".dlog"));
}

TEST(BlockLog, MemoryModeKeepsNoRecordBytes) {
  BlockLog log(config_for(StorageMode::kMemory), "", true);
  log.append(RecordType::kBlock, key_of(1), payload_of(40, 1));
  log.append(RecordType::kSite, key_of(2), payload_of(8, 2));
  ASSERT_TRUE(log.contains(RecordType::kBlock, key_of(1)));
  EXPECT_FALSE(log.read(RecordType::kBlock, key_of(1)).has_value());

  std::size_t visited = 0;
  log.for_each([&](RecordType, const Hash256&, ByteView) { ++visited; });
  EXPECT_EQ(visited, 0u);
  // The byte arithmetic is kept all the same.
  EXPECT_EQ(log.physical_bytes(),
            kFileHeaderBytes + frame_size(40) + frame_size(8));
}

TEST(BlockLog, ReopenRecoversCatalogAndTombstones) {
  ScratchDir scratch("reopen");
  std::uint64_t physical = 0;
  {
    BlockLog log(config_for(StorageMode::kDisk, 1024), scratch.str(), true);
    for (std::uint8_t i = 0; i < 10; ++i)
      log.append(RecordType::kBlock, key_of(i), payload_of(120, i));
    log.append(RecordType::kBlock, key_of(4), payload_of(60, 0x44));
    log.erase(RecordType::kBlock, key_of(7));
    log.sync();
    physical = log.physical_bytes();
  }
  BlockLog log(config_for(StorageMode::kDisk, 1024), scratch.str(), false);
  EXPECT_EQ(log.physical_bytes(), physical);
  EXPECT_EQ(log.recovered_records(), 9u);
  EXPECT_EQ(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kBlock, key_of(7)));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(4)), payload_of(60, 0x44));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(9)), payload_of(120, 9));

  // The reopened log keeps appending where it left off.
  log.append(RecordType::kBlock, key_of(42), payload_of(10, 0xAB));
  EXPECT_EQ(*log.read(RecordType::kBlock, key_of(42)), payload_of(10, 0xAB));
}

TEST(BlockLog, TruncatedTailIsDroppedOnReopen) {
  ScratchDir scratch("torn");
  std::string last_segment;
  {
    BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
    for (std::uint8_t i = 0; i < 6; ++i)
      log.append(RecordType::kSite, key_of(i), payload_of(100, i));
    log.sync();
    last_segment = scratch.str() + "/seg-000000.dlog";
  }
  // Kill the writer mid-append: chop 30 bytes off the last frame.
  const std::uint64_t size = std::filesystem::file_size(last_segment);
  std::filesystem::resize_file(last_segment, size - 30);

  BlockLog log(config_for(StorageMode::kDisk), scratch.str(), false);
  EXPECT_EQ(log.recovered_records(), 5u);  // the torn 6th is gone
  EXPECT_GT(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kSite, key_of(5)));
  for (std::uint8_t i = 0; i < 5; ++i)
    EXPECT_EQ(*log.read(RecordType::kSite, key_of(i)), payload_of(100, i));

  // Appending after recovery lands on a clean frame boundary.
  log.append(RecordType::kSite, key_of(5), payload_of(100, 5));
  log.sync();
  EXPECT_EQ(std::filesystem::file_size(last_segment), log.physical_bytes());
}

TEST(BlockLog, TornCrcIsDroppedOnReopen) {
  ScratchDir scratch("crc");
  {
    BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
    for (std::uint8_t i = 0; i < 4; ++i)
      log.append(RecordType::kDelta, key_of(i), payload_of(80, i));
    log.sync();
  }
  // Flip one payload byte inside the *last* frame (offset −1 from EOF).
  const std::string seg = scratch.str() + "/seg-000000.dlog";
  {
    std::fstream f(seg, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-1, std::ios::end);
    f.put('\x5A');
  }
  BlockLog log(config_for(StorageMode::kDisk), scratch.str(), false);
  EXPECT_EQ(log.recovered_records(), 3u);
  EXPECT_GT(log.truncated_tail_bytes(), 0u);
  EXPECT_FALSE(log.contains(RecordType::kDelta, key_of(3)));
}

TEST(BlockLog, DiskReadsInterleavedWithAppendsSurviveReopen) {
  ScratchDir scratch("interleave");
  const StorageConfig config = config_for(StorageMode::kDisk, 1024);
  const auto expect_all_read_back = [](const BlockLog& log, std::uint8_t n) {
    for (std::uint8_t i = 0; i < n; ++i) {
      const auto got = log.read(RecordType::kSite, key_of(i));
      if (i % 5 == 4) {
        EXPECT_FALSE(got) << int{i};
      } else {
        ASSERT_TRUE(got) << int{i};
        EXPECT_EQ(*got, payload_of(30 + i % 9 * 11, i)) << int{i};
      }
    }
  };
  {
    BlockLog log(config, scratch.str(), true);
    for (std::uint8_t i = 0; i < 60; ++i) {
      log.append(RecordType::kSite, key_of(i), payload_of(30 + i % 9 * 11, i));
      // Read the new record and an older one between appends.
      EXPECT_EQ(*log.read(RecordType::kSite, key_of(i)),
                payload_of(30 + i % 9 * 11, i));
      if (i % 5 == 4) log.erase(RecordType::kSite, key_of(i));
      const std::uint8_t old = i / 2;
      if (old % 5 != 4) {
        EXPECT_EQ(*log.read(RecordType::kSite, key_of(old)),
                  payload_of(30 + old % 9 * 11, old));
      }
    }
    expect_all_read_back(log, 60);
    ASSERT_GT(log.segment_count(), 3u);
    log.sync();
    EXPECT_EQ(file_bytes(scratch.path, ".dlog"), log.physical_bytes());
  }
  BlockLog log(config, scratch.str(), false);
  EXPECT_EQ(log.truncated_tail_bytes(), 0u);
  EXPECT_EQ(file_bytes(scratch.path, ".dlog"), log.physical_bytes());
  expect_all_read_back(log, 60);
  // Appends after the reopen, again interleaved with reads.
  for (std::uint8_t i = 60; i < 80; ++i) {
    log.append(RecordType::kSite, key_of(i), payload_of(30 + i % 9 * 11, i));
    if (i % 5 == 4) log.erase(RecordType::kSite, key_of(i));
    expect_all_read_back(log, static_cast<std::uint8_t>(i + 1));
  }
  log.sync();
  EXPECT_EQ(file_bytes(scratch.path, ".dlog"), log.physical_bytes());
}

/// write(2) calls this process has made so far (the syscw line of
/// /proc/self/io), or -1 where that file cannot be read.
long long write_syscalls() {
  std::ifstream io("/proc/self/io");
  std::string field;
  long long value = 0;
  while (io >> field >> value)
    if (field == "syscw:") return value;
  return -1;
}

// Appends go through the stdio buffer: a seek before each append would
// flush it, one write(2) per record (10,350 writes for these appends).
TEST(BlockLog, DiskAppendsShareWriteCalls) {
  if (write_syscalls() < 0) GTEST_SKIP() << "/proc/self/io is not readable";
  ScratchDir scratch("syscw");
  const Bytes payload = payload_of(100, 0x5A);
  long long writes = 0;
  {
    BlockLog log(config_for(StorageMode::kDisk), scratch.str(), true);
    const long long start = write_syscalls();
    for (std::uint32_t i = 0; i < 10'000; ++i) {
      Hash256 key;
      for (std::size_t b = 0; b < 4; ++b)
        key[b] = static_cast<Byte>(i >> (8 * b));
      log.append(RecordType::kSite, key, payload);
    }
    writes = write_syscalls() - start;
    log.sync();
    EXPECT_EQ(file_bytes(scratch.path, ".dlog"), log.physical_bytes());
  }
  EXPECT_LT(writes, 1'000);
}

// ------------------------------------------------------ state arena
//
// The arena is write-only: a key's presence reads back through erase(),
// which appends a marker for a live key and nothing for an absent one.

TEST(StateBackend, PutGetEraseOnBothKinds) {
  ScratchDir scratch("state");
  for (const StorageMode mode : {StorageMode::kMemory, StorageMode::kDisk}) {
    StateBackend state(config_for(mode), scratch.str(), true);
    const Hash256 a = key_of(1), b = key_of(2);
    EXPECT_EQ(state.physical_bytes(), kFileHeaderBytes);

    state.put(a, payload_of(40, 0x11));
    state.put(b, payload_of(40, 0x22));
    state.put(a, payload_of(20, 0x33));  // upsert: the old frame is dead
    std::uint64_t expect =
        kFileHeaderBytes + 2 * frame_size(40) + frame_size(20);
    EXPECT_EQ(state.physical_bytes(), expect);

    EXPECT_TRUE(state.erase(b));
    expect += frame_size(0);
    EXPECT_FALSE(state.erase(b));          // already gone
    EXPECT_FALSE(state.erase(key_of(9)));  // never put
    EXPECT_EQ(state.physical_bytes(), expect);
    EXPECT_TRUE(state.erase(a));
  }
}

TEST(StateBackend, MemoryAndMmapAccountingIdentical) {
  ScratchDir scratch("state_parity");
  StateBackend mem(config_for(StorageMode::kMemory), "", true);
  StateBackend disk(config_for(StorageMode::kDisk), scratch.str(), true);
  const std::filesystem::path arena = scratch.path / "state.arena";
  disk.sync();
  EXPECT_EQ(std::filesystem::file_size(arena), disk.physical_bytes());

  const auto drive = [](StateBackend& s) {
    std::vector<bool> erased;
    for (std::uint8_t i = 0; i < 30; ++i)
      s.put(key_of(i), payload_of(20 + i * 3, i));
    for (std::uint8_t i = 0; i < 30; i += 4)
      erased.push_back(s.erase(key_of(i)));
    for (std::uint8_t i = 0; i < 30; i += 3)  // some already gone
      erased.push_back(s.erase(key_of(i)));
    for (std::uint8_t i = 1; i < 10; i += 2)
      s.put(key_of(i), payload_of(15, 0x77));
    return erased;
  };
  EXPECT_EQ(drive(mem), drive(disk));
  EXPECT_EQ(mem.physical_bytes(), disk.physical_bytes());

  // The file equals the gauge at every flush, with the arena still open.
  disk.sync();
  EXPECT_EQ(std::filesystem::file_size(arena), disk.physical_bytes());
}

TEST(StateBackend, MmapReopenAndTornTail) {
  ScratchDir scratch("state_reopen");
  const StorageConfig disk = config_for(StorageMode::kDisk);
  const std::filesystem::path arena = scratch.path / "state.arena";
  std::uint64_t physical = 0;
  {
    StateBackend state(disk, scratch.str(), true);
    for (std::uint8_t i = 0; i < 8; ++i)
      state.put(key_of(i), payload_of(64, i));
    state.erase(key_of(2));
    physical = state.physical_bytes();
  }
  EXPECT_EQ(std::filesystem::file_size(arena), physical);

  {
    StateBackend state(disk, scratch.str(), false);
    EXPECT_EQ(state.physical_bytes(), physical);
    EXPECT_FALSE(state.erase(key_of(2)));  // the recovered marker holds
    EXPECT_TRUE(state.erase(key_of(7)));
    physical = state.physical_bytes();
  }
  EXPECT_EQ(std::filesystem::file_size(arena), physical);

  // Torn tail: chop off both erase markers, all of put(7), and 10 bytes
  // into put(6). Reopen stops at the torn put(6) — so 6..7 are gone and
  // the erase of 2 never happened.
  const std::uint64_t chop = 2 * frame_size(0) + frame_size(64) + 10;
  std::filesystem::resize_file(arena, physical - chop);
  StateBackend state(disk, scratch.str(), false);
  EXPECT_EQ(state.physical_bytes(), kFileHeaderBytes + 6 * frame_size(64));
  EXPECT_EQ(std::filesystem::file_size(arena), state.physical_bytes());
  EXPECT_FALSE(state.erase(key_of(6)));
  EXPECT_FALSE(state.erase(key_of(7)));
  EXPECT_TRUE(state.erase(key_of(2)));  // its erase marker was torn
  EXPECT_TRUE(state.erase(key_of(5)));

  // Appends resume on a clean frame boundary.
  state.sync();
  EXPECT_EQ(std::filesystem::file_size(arena), state.physical_bytes());
}

// ------------------------------------------------- frame mutation

Bytes read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::filesystem::path& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// Decoder fuzzing for both frame readers: flip, truncate or splice the
// bytes of one file, then reopen twice. Recovery must keep a prefix whose
// files match the gauges, and the second reopen must find exactly what
// the first one kept.
TEST(StorageFrames, SeededMutationRecoversAStablePrefix) {
  ScratchDir scratch("mutate");
  const std::filesystem::path pristine = scratch.path / "pristine";
  const std::filesystem::path work = scratch.path / "work";
  const StorageConfig config = config_for(StorageMode::kDisk, 1024);
  {
    BlockLog log(config, pristine.string(), true);
    StateBackend state(config, pristine.string(), true);
    for (std::uint8_t i = 0; i < 40; ++i) {
      log.append(RecordType::kSite, key_of(i),
                 payload_of(20 + i % 7 * 10, i));
      state.put(key_of(i), payload_of(10 + i % 5 * 8, i));
      if (i % 4 == 3) {
        log.erase(RecordType::kSite, key_of(i - 2));
        state.erase(key_of(i - 2));
      }
    }
  }
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(pristine))
    names.push_back(e.path().filename().string());
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 4u);  // several segments plus the arena
  std::vector<Bytes> files;
  for (const std::string& name : names)
    files.push_back(read_bytes(pristine / name));

  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    std::filesystem::remove_all(work);
    std::filesystem::copy(pristine, work);
    Rng rng(seed);
    const std::size_t target = rng.uniform(names.size());
    Bytes data = files[target];
    testutil::mutate_bytes(data, rng, files);
    write_bytes(work / names[target], data);

    std::size_t records[2] = {};
    std::uint64_t log_bytes[2] = {}, arena_bytes[2] = {};
    for (int pass = 0; pass < 2; ++pass) {
      BlockLog log(config, work.string(), false);
      StateBackend state(config, work.string(), false);
      state.sync();
      EXPECT_EQ(file_bytes(work, ".dlog"), log.physical_bytes());
      EXPECT_EQ(file_bytes(work, ".arena"), state.physical_bytes());
      if (pass == 1) {
        EXPECT_EQ(log.truncated_tail_bytes(), 0u);
      }
      records[pass] = log.live_records();
      log_bytes[pass] = log.physical_bytes();
      arena_bytes[pass] = state.physical_bytes();
    }
    EXPECT_EQ(records[0], records[1]);
    EXPECT_EQ(log_bytes[0], log_bytes[1]);
    EXPECT_EQ(arena_bytes[0], arena_bytes[1]);
  }
}

// --------------------------------------------------- on-disk format

/// SHA-256 (hex) of every file under `dir`, keyed by its relative path.
std::map<std::string, std::string> file_digests(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file())
      out[std::filesystem::relative(e.path(), dir).string()] =
          to_hex(crypto::Sha256::digest(read_bytes(e.path())));
  return out;
}

// Pins every byte the storage layer writes: a fixed sequence through a
// disk LedgerStore must leave files with these SHA-256 digests. It crosses
// 1 KiB segment rotations, an upsert, tombstones and a compaction in the
// log, an upsert and erase markers in the arena, and a reopen that
// appends to both.
TEST(StorageFormat, DiskFilesMatchPinnedDigests) {
  ScratchDir scratch("format");
  StorageConfig config = config_for(StorageMode::kDisk, 1024);
  config.path = scratch.str();
  {
    LedgerStore store(config, "pin");
    BlockLog& log = store.log();
    for (std::uint8_t i = 0; i < 12; ++i)
      log.append(RecordType::kSite, key_of(i), payload_of(150 + i * 9, i));
    log.append(RecordType::kSite, key_of(3), payload_of(40, 0x33));
    log.append(RecordType::kHeader, key_of(3), payload_of(70, 0x3A));
    for (std::uint8_t i = 0; i < 12; i += 4)
      EXPECT_TRUE(log.erase(RecordType::kSite, key_of(i)));
    EXPECT_EQ(log.segment_count(), 4u);
    EXPECT_GT(log.compact(), 0u);
    log.append(RecordType::kBody, key_of(20), payload_of(300, 0x20));
    EXPECT_TRUE(log.erase(RecordType::kSite, key_of(5)));
    EXPECT_EQ(log.segment_count(), 3u);

    StateBackend& state = store.state();
    for (std::uint8_t i = 0; i < 6; ++i)
      state.put(key_of(i), payload_of(24 + i * 5, i));
    state.put(key_of(2), payload_of(10, 0x22));
    EXPECT_TRUE(state.erase(key_of(1)));
    EXPECT_TRUE(state.erase(key_of(4)));
    store.commit();
  }
  {
    LedgerStore store(config, "pin", false);
    EXPECT_EQ(store.log().truncated_tail_bytes(), 0u);
    EXPECT_EQ(store.log().live_records(), 10u);
    store.log().append(RecordType::kBlock, key_of(50), payload_of(90, 0x50));
    store.state().put(key_of(50), payload_of(16, 0x50));
  }
  const std::map<std::string, std::string> want = {
      {"seg-000000.dlog",
       "4b7d9dc910c765f7acc20ef42bae559eb33562a7a225c6c8599b6116bd126f5c"},
      {"seg-000001.dlog",
       "81fc4ac2e1ab4048d8acfdbc591acd49b3ed94ea8075b4061f9662dff4753b29"},
      {"seg-000002.dlog",
       "021de367d0c3b2cc970f352ce89049f826371b2fc40d2db0b1d420be95e2e779"},
      {"seg-000003.dlog",
       "5fbcf2fe350f5dfe80237180cb26bc7e4f8b8313a63b4fb0bcde9b079ac26f76"},
      {"state.arena",
       "1ec5554b945bf77473cb04b23b1bdbf279425d9a6e3f7e892070c78b66628423"},
  };
  EXPECT_EQ(file_digests(scratch.path / "pin"), want);
}

// ------------------------------------------------------ ledger store

TEST(LedgerStore, DiskInstanceDirectoriesAndGauges) {
  ScratchDir scratch("store");
  StorageConfig config;
  config.mode = StorageMode::kDisk;
  config.path = scratch.str();

  obs::MetricsRegistry registry;
  LedgerStore store(config, "chain-s7/node0");
  store.attach_probe(obs::Probe{&registry, nullptr});

  store.log().append(RecordType::kHeader, key_of(1), payload_of(100, 1));
  store.state().put(key_of(2), payload_of(50, 2));
  store.note_pruned(123);
  store.commit();

  EXPECT_TRUE(std::filesystem::exists(scratch.path / "chain-s7" / "node0" /
                                      "seg-000000.dlog"));
  EXPECT_EQ(registry.gauge("storage.log_bytes").value(),
            static_cast<double>(store.log_bytes()));
  EXPECT_EQ(registry.gauge("storage.state_bytes").value(),
            static_cast<double>(store.state_bytes()));
  EXPECT_EQ(registry.gauge("storage.segments").value(), 1.0);
  EXPECT_EQ(registry.gauge("storage.pruned_bytes").value(), 123.0);
}

TEST(LedgerStore, SyncOnCommitKeepsFilesEqualToGauges) {
  ScratchDir scratch("sync");
  StorageConfig config = config_for(StorageMode::kDisk);
  config.path = scratch.str();
  config.sync_on_commit = true;
  LedgerStore store(config, "node0");
  const std::filesystem::path dir = store.dir();
  for (std::uint8_t i = 0; i < 6; ++i) {
    store.log().append(RecordType::kBlock, key_of(i), payload_of(100 + i, i));
    store.state().put(key_of(i), payload_of(30, i));
    if (i % 2 == 1) store.state().erase(key_of(i - 1));
    store.commit();
    EXPECT_EQ(std::filesystem::file_size(dir / "seg-000000.dlog"),
              store.log_bytes());
    EXPECT_EQ(std::filesystem::file_size(dir / "state.arena"),
              store.state_bytes());
  }
}

TEST(LedgerStore, MemoryModeTouchesNoFilesystem) {
  StorageConfig config;  // defaults to memory
  LedgerStore store(config, "lattice-s1/node3");
  EXPECT_FALSE(store.disk());
  EXPECT_TRUE(store.dir().empty());
  store.log().append(RecordType::kBlock, key_of(9), payload_of(10, 9));
  EXPECT_GT(store.log_bytes(), 0u);
}

TEST(StorageConfig, EnvOverrideParsing) {
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "disk:/tmp/dlt-env-test", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kDisk);
    EXPECT_EQ(c.path, "/tmp/dlt-env-test");
  }
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "disk", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kDisk);
    EXPECT_TRUE(c.path.empty());
  }
  {
    StorageConfig c;
    c.mode = StorageMode::kDisk;
    ::setenv("DLT_STORAGE", "memory", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kMemory);
  }
  {
    StorageConfig c;
    ::setenv("DLT_STORAGE", "floppy", 1);
    apply_env_storage(c);
    EXPECT_EQ(c.mode, StorageMode::kMemory);  // invalid → untouched
  }
  ::unsetenv("DLT_STORAGE");
}

}  // namespace
}  // namespace dlt::storage
