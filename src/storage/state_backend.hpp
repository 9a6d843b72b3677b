// StateBackend: the write-only arena behind each ledger's mutable state
// (UTXO entries, account snapshots, lattice heads, tangle tips).
//
// The ledgers keep their state in RAM and write every change through
// here; nothing reads it back. So the backend keeps only the set of live
// keys and the arena's byte count. Memory mode stops there; disk mode also
// appends the frames to `state.arena` (storage/frame.hpp format; tag 0 =
// put, 1 = erase marker) through one FrameFile, so the file equals
// physical_bytes() whenever it is flushed. An upsert appends a fresh frame
// and the old one becomes dead weight. Reopen rescans the frames, rebuilds
// the key set and truncates the first torn frame and everything after it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "storage/config.hpp"
#include "storage/frame.hpp"
#include "support/bytes.hpp"
#include "support/flat_map.hpp"

namespace dlt::storage {

class StateBackend {
 public:
  /// `dir` holds state.arena in disk mode (ignored in memory mode).
  /// truncate = true starts an empty arena; false recovers the file.
  StateBackend(const StorageConfig& config, const std::string& dir,
               bool truncate);

  StateBackend(const StateBackend&) = delete;
  StateBackend& operator=(const StateBackend&) = delete;

  void put(const Hash256& key, ByteView value);
  /// Appends an erase marker; returns false (appending nothing) when the
  /// key is not live.
  bool erase(const Hash256& key);
  /// Header + every appended frame, live or dead: the file's length in
  /// disk mode, identical arithmetic in memory mode.
  std::uint64_t physical_bytes() const { return physical_; }
  /// Flushes and fsyncs the arena (disk mode; no-op in memory mode).
  void sync();

 private:
  void append_frame(std::uint8_t tag, const Hash256& key, ByteView payload);

  std::optional<FrameFile> file_;  // disk mode only
  support::FlatSet<Hash256> live_;
  std::uint64_t physical_ = kFileHeaderBytes;
};

}  // namespace dlt::storage
