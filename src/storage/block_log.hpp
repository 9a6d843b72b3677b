// Append-only segmented record log with a ranged catalog.
//
// The log is the durable half of every ledger: chain block headers/bodies,
// account state deltas, lattice blocks and tangle sites are appended as
// typed, keyed, CRC-protected records. Records are never overwritten in
// place — an upsert appends a fresh frame (the old one becomes dead
// weight), an erase appends a tombstone — and `compact()` rewrites the
// live set to reclaim the difference, which is exactly how the paper's
// pruning disciplines (§V) are realised on disk.
//
// Segments are seg-NNNNNN.dlog files in the storage/frame.hpp format (the
// frame tag is the RecordType), one FrameFile each, and rotate once their
// appended bytes pass `segment_bytes`.
//
// Determinism contract: the catalog, rotation points and every byte
// counter are pure arithmetic over the append sequence, computed
// identically in both modes. Memory mode (kMemory) stops there: it keeps
// no payloads, frame heads or CRCs, so record bytes exist only in disk
// mode (kDisk), and read(), for_each() and the replay built on them are
// disk-only. Disk I/O happens synchronously on the caller's (sim) thread,
// so switching modes cannot reorder events.
//
// Reopen (truncate = false, disk mode) scans the segment files in index
// order, validates magic + CRC frame by frame, truncates the first torn
// frame (partial append or corrupted bytes) and everything after it in
// that segment, deletes every later segment (no longer reachable), and
// rebuilds the catalog with last-wins upsert and tombstone semantics. A
// second reopen therefore finds exactly what the first one kept.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/config.hpp"
#include "storage/frame.hpp"
#include "support/bytes.hpp"

namespace dlt::storage {

/// Record namespaces: one catalog key is (type, key), so e.g. a block's
/// header and body coexist under the same hash.
enum class RecordType : std::uint8_t {
  kTombstone = 0,  // payload = [target type u8]; kills (target, key)
  kHeader = 1,     // chain block header
  kBody = 2,       // chain block transaction list
  kDelta = 3,      // account-model per-block state delta
  kBlock = 4,      // lattice block
  kSite = 5,       // tangle transaction (site)
};

class BlockLog {
 public:
  /// `dir` holds the seg-NNNNNN.dlog files in disk mode (ignored in memory
  /// mode). truncate = true starts from an empty log, removing stale
  /// segments; false recovers whatever the directory holds.
  BlockLog(const StorageConfig& config, std::string dir, bool truncate);

  BlockLog(const BlockLog&) = delete;
  BlockLog& operator=(const BlockLog&) = delete;

  /// Upsert: appends a frame and points the catalog at it. A previous
  /// record under (type, key) becomes dead bytes.
  void append(RecordType type, const Hash256& key, ByteView payload);

  /// Appends a tombstone and drops (type, key) from the catalog. Returns
  /// false (and appends nothing) when the record does not exist.
  bool erase(RecordType type, const Hash256& key);

  bool contains(RecordType type, const Hash256& key) const;

  /// Disk mode only: reads a live record's payload back with pread.
  /// nullopt when the record is not live, and always in memory mode.
  std::optional<Bytes> read(RecordType type, const Hash256& key) const;

  /// Disk mode only: visits every live record in append-sequence order —
  /// the replay order for recovery. Visits nothing in memory mode.
  void for_each(const std::function<void(RecordType, const Hash256&,
                                         ByteView)>& fn) const;

  /// Rewrites the live set (in append-sequence order) into fresh
  /// segments, dropping dead frames and tombstones. Returns the physical
  /// bytes reclaimed. Memory mode replays the same rotation and byte
  /// arithmetic from the catalog's record lengths.
  std::uint64_t compact();

  /// Flushes and fsyncs every dirty segment (disk mode; no-op in memory
  /// mode).
  void sync();

  // -- accounting (identical arithmetic in both modes) --
  /// Total bytes the log occupies: segment headers + every appended frame,
  /// live or dead. In disk mode this equals the summed file sizes.
  std::uint64_t physical_bytes() const { return physical_bytes_; }
  std::size_t segment_count() const { return segments_.size(); }
  std::size_t live_records() const { return catalog_.size(); }

  // -- recovery stats (populated by a truncate=false reopen) --
  std::size_t recovered_records() const { return recovered_records_; }
  /// Bytes dropped from torn segments plus the unreachable segments
  /// deleted after them.
  std::uint64_t truncated_tail_bytes() const { return truncated_tail_bytes_; }

 private:
  struct CatalogKey {
    RecordType type;
    Hash256 key;
    bool operator==(const CatalogKey&) const = default;
  };
  struct CatalogKeyHash {
    std::size_t operator()(const CatalogKey& k) const noexcept {
      return std::hash<Hash256>{}(k.key) ^
             (static_cast<std::size_t>(k.type) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Entry {
    std::uint32_t segment;
    std::uint64_t offset;  // of the frame within the segment
    std::uint32_t payload_len;
    std::uint64_t seq;  // append sequence, for deterministic iteration
  };

  void open_fresh();
  void recover();
  void new_segment();
  /// Places a frame with a `payload_len`-byte payload at the end of the
  /// log, rotating first when needed, and returns where it starts.
  Entry place(std::size_t payload_len);
  /// Upserts (type, key) at a freshly placed frame.
  void add(RecordType type, const Hash256& key, std::size_t payload_len);
  /// Disk mode: writes the frame just placed into the last segment.
  void write(RecordType type, const Hash256& key, ByteView payload);
  Bytes read_at(const Entry& e) const;
  /// Deletes every seg-NNNNNN.dlog with NNNNNN >= `first`; returns the
  /// bytes they held.
  std::uint64_t remove_segment_files(std::uint32_t first);
  std::string segment_path(std::uint32_t index) const;

  bool disk_;
  std::string dir_;
  std::size_t segment_bytes_;
  /// Per segment: header + appended frames. The byte count is all a
  /// segment is in memory mode.
  std::vector<std::uint64_t> segments_;
  std::vector<FrameFile> files_;  // disk mode: one per segment
  std::unordered_map<CatalogKey, Entry, CatalogKeyHash> catalog_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t physical_bytes_ = 0;
  std::size_t recovered_records_ = 0;
  std::uint64_t truncated_tail_bytes_ = 0;
};

}  // namespace dlt::storage
