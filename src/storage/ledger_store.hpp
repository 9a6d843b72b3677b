// LedgerStore: the per-ledger-instance bundle of block log + state
// backend, plus the storage.* observability gauges.
//
// A cluster builds one LedgerStore per node (instance names like
// "chain-s7/node0") and hands it to the ledger via attach_store(). The
// ledger writes through at its commit points; commit() refreshes the
// gauges so every BENCH_*.json carries
//   storage.log_bytes    — block-log physical bytes (== file bytes on disk)
//   storage.state_bytes  — state-arena physical bytes
//   storage.segments     — log segment count
//   storage.pruned_bytes — cumulative bytes reclaimed by pruning
// with identical values in memory and disk mode (the determinism
// contract: all accounting is mode-independent arithmetic). Only disk
// mode keeps record bytes, so reading the log back is disk-only.
#pragma once

#include <cstdint>
#include <string>

#include "obs/probe.hpp"
#include "storage/block_log.hpp"
#include "storage/config.hpp"
#include "storage/state_backend.hpp"

namespace dlt::storage {

class LedgerStore {
 public:
  /// `instance` becomes the subdirectory under config.path in disk mode;
  /// truncate=false reopens whatever that directory holds (recovery).
  LedgerStore(const StorageConfig& config, const std::string& instance,
              bool truncate = true);

  BlockLog& log() { return log_; }
  const BlockLog& log() const { return log_; }
  StateBackend& state() { return state_; }
  const StateBackend& state() const { return state_; }

  const StorageConfig& config() const { return config_; }
  bool disk() const { return config_.mode == StorageMode::kDisk; }
  /// Instance directory ("" in memory mode).
  const std::string& dir() const { return dir_; }

  /// Resolves the storage.* gauges against `probe`.
  void attach_probe(const obs::Probe& probe);

  /// Credits reclaimed bytes to the pruned_bytes gauge (called by the
  /// ledgers' pruning paths with compact() results).
  void note_pruned(std::uint64_t bytes) { pruned_bytes_ += bytes; }
  std::uint64_t pruned_bytes() const { return pruned_bytes_; }

  std::uint64_t log_bytes() const { return log_.physical_bytes(); }
  std::uint64_t state_bytes() const { return state_.physical_bytes(); }

  /// Refreshes the gauges; with config.sync_on_commit also flushes and
  /// fsyncs the log and the arena. Cheap enough to call per block commit.
  void commit();

 private:
  StorageConfig config_;
  std::string dir_;
  BlockLog log_;
  StateBackend state_;
  std::uint64_t pruned_bytes_ = 0;

  obs::Gauge* g_log_bytes_ = nullptr;
  obs::Gauge* g_state_bytes_ = nullptr;
  obs::Gauge* g_segments_ = nullptr;
  obs::Gauge* g_pruned_bytes_ = nullptr;
};

}  // namespace dlt::storage
