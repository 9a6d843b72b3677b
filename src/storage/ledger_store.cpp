#include "storage/ledger_store.hpp"

namespace dlt::storage {

namespace {

std::string instance_dir(const StorageConfig& config,
                         const std::string& instance) {
  if (config.mode != StorageMode::kDisk) return {};
  return (config.path.empty() ? std::string("dlt-storage") : config.path) +
         "/" + instance;
}

}  // namespace

LedgerStore::LedgerStore(const StorageConfig& config,
                         const std::string& instance, bool truncate)
    : config_(config),
      dir_(instance_dir(config, instance)),
      log_(config_, dir_, truncate),
      state_(config_, dir_, truncate) {}

void LedgerStore::attach_probe(const obs::Probe& probe) {
  g_log_bytes_ = probe.gauge("storage.log_bytes");
  g_state_bytes_ = probe.gauge("storage.state_bytes");
  g_segments_ = probe.gauge("storage.segments");
  g_pruned_bytes_ = probe.gauge("storage.pruned_bytes");
  commit();
}

void LedgerStore::commit() {
  obs::set(g_log_bytes_, static_cast<double>(log_.physical_bytes()));
  obs::set(g_state_bytes_, static_cast<double>(state_.physical_bytes()));
  obs::set(g_segments_, static_cast<double>(log_.segment_count()));
  obs::set(g_pruned_bytes_, static_cast<double>(pruned_bytes_));
  if (config_.sync_on_commit) {
    log_.sync();
    state_.sync();
  }
}

}  // namespace dlt::storage
