// Storage-layer configuration shared by every ledger and cluster driver.
//
// Two modes behind one switch:
//   kMemory — the log keeps its catalog and the state arena its live keys,
//             both with their byte counts, but no record bytes: nothing
//             touches the filesystem and nothing can be read back.
//   kDisk   — the same data structures also write every frame to an
//             append-only segmented log plus an append-only state arena
//             under `path/<instance>/`, which reads and replay use.
//
// The determinism contract (DESIGN.md "Storage determinism contract")
// requires that every byte-accounting figure the simulation can observe —
// frame sizes, segment rotation points, the physical byte gauges — is
// computed by identical arithmetic in both modes, so switching modes can
// never shift a trace or a RunMetrics value.
#pragma once

#include <cstddef>
#include <string>

namespace dlt::storage {

enum class StorageMode {
  kMemory,
  kDisk,
};

const char* to_string(StorageMode mode);

struct StorageConfig {
  StorageMode mode = StorageMode::kMemory;
  /// Root directory for disk mode; each ledger instance gets its own
  /// subdirectory. Empty means "dlt-storage" under the working directory.
  std::string path;
  /// Log segment rotation threshold. Rotation is pure arithmetic on
  /// appended bytes, identical across modes.
  std::size_t segment_bytes = 1u << 20;
  /// Flush and fsync the log and arena at every LedgerStore::commit(). Off
  /// by default: benches measure sizes, not fsync latency, and recovery
  /// correctness is exercised by the torn-tail tests either way.
  bool sync_on_commit = false;
};

/// Applies the `DLT_STORAGE` environment override used by benches and the
/// determinism gate, logging the resolved config when present:
///   DLT_STORAGE=memory          — byte counts only (the default)
///   DLT_STORAGE=disk            — disk backends under ./dlt-storage
///   DLT_STORAGE=disk:/some/dir  — disk backends under /some/dir
/// Unset or invalid values leave `config` untouched.
void apply_env_storage(StorageConfig& config);

}  // namespace dlt::storage
