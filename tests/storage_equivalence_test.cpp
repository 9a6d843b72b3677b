// Differential harness for the pluggable storage layer (ISSUE 9).
//
// The storage determinism contract (DESIGN.md): in-RAM structures stay
// authoritative in both modes, writes go through at the same commit
// points, and every byte-accounting figure is mode-independent
// arithmetic. Hence flipping StorageConfig::mode between memory and disk
// must leave traces byte-identical, RunMetrics equal, and every
// non-wall-clock registry metric — including the storage.* gauges
// themselves — byte-identical per seed, for all three ledger families.
//
// The recovery half kills the writer mid-append (chops bytes off the last
// log segment, i.e. a torn frame), reopens, and asserts the replayed
// ledger converges to the same tips/heads/state as a clean run of the
// surviving prefix — plus reopen idempotence (replaying twice is a no-op).
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chain/codec.hpp"
#include "chain/light_client.hpp"
#include "chain/node.hpp"
#include "chain_test_util.hpp"
#include "core/chain_cluster.hpp"
#include "core/lattice_cluster.hpp"
#include "core/tangle_cluster.hpp"
#include "core/workload.hpp"
#include "lattice_test_util.hpp"
#include "mutation_util.hpp"
#include "storage/ledger_store.hpp"
#include "support/serialize.hpp"
#include "tangle_oracle.hpp"

namespace dlt {
namespace {

/// Fresh scratch directory per test, removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("dlt_storage_eq_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

storage::StorageConfig disk_config(const ScratchDir& scratch) {
  storage::StorageConfig cfg;
  cfg.mode = storage::StorageMode::kDisk;
  cfg.path = scratch.str();
  return cfg;
}

/// Chops `n` bytes off the end of the newest log segment in `dir` —
/// simulating a writer killed mid-append (torn final frame).
void chop_last_segment(const std::string& dir, std::uint64_t n) {
  std::filesystem::path last;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 5 && name.substr(name.size() - 5) == ".dlog" &&
        (last.empty() || entry.path().filename() > last.filename()))
      last = entry.path();
  }
  ASSERT_FALSE(last.empty()) << "no log segment in " << dir;
  const std::uint64_t size = std::filesystem::file_size(last);
  ASSERT_GT(size, n);
  std::filesystem::resize_file(last, size - n);
}

void expect_run_metrics_eq(const core::RunMetrics& a,
                           const core::RunMetrics& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_DOUBLE_EQ(a.sim_duration, b.sim_duration);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.included, b.included);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.pending_end, b.pending_end);
  EXPECT_EQ(a.reorgs, b.reorgs);
  EXPECT_EQ(a.orphaned_blocks, b.orphaned_blocks);
  EXPECT_EQ(a.max_reorg_depth, b.max_reorg_depth);
  EXPECT_EQ(a.blocks_produced, b.blocks_produced);
  EXPECT_EQ(a.stored_bytes, b.stored_bytes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.message_bytes, b.message_bytes);
  EXPECT_EQ(a.inclusion_latency.count(), b.inclusion_latency.count());
  EXPECT_EQ(a.confirmation_latency.count(), b.confirmation_latency.count());
}

// ----------------------------------------------- registry JSON filtering

bool volatile_metric(const std::string& key) {
  return key.find("profile.") != std::string::npos ||
         key.find("_us") != std::string::npos;
}

/// Same linear-scan filter as the traffic harness: drops wall-clock
/// members, keeps everything else — including the storage.* gauges, which
/// the determinism contract requires to be numerically identical across
/// modes (byte accounting is pure arithmetic, never file-system feedback).
std::string filter_registry_json(const std::string& obj) {
  std::string out = "{";
  bool first = true;
  std::size_t i = 1;
  while (i + 1 < obj.size()) {
    if (obj[i] == ',') {
      ++i;
      continue;
    }
    const std::size_t key_end = obj.find('"', i + 1);
    const std::string key = obj.substr(i + 1, key_end - i - 1);
    i = key_end + 2;
    const std::size_t value_start = i;
    if (obj[i] == '{') {
      int depth = 0;
      do {
        if (obj[i] == '{') ++depth;
        if (obj[i] == '}') --depth;
        ++i;
      } while (depth > 0);
    } else {
      while (i + 1 < obj.size() && obj[i] != ',') ++i;
    }
    std::string value = obj.substr(value_start, i - value_start);
    if (volatile_metric(key)) continue;
    if (!value.empty() && value[0] == '{') value = filter_registry_json(value);
    if (!first) out += ',';
    first = false;
    out += '"';
    out += key;
    out += "\":";
    out += value;
  }
  out += '}';
  return out;
}

// ------------------------------------------- cluster differential: chain

struct ChainOutcome {
  std::string trace;
  core::RunMetrics metrics;
  chain::BlockHash tip;
  bool converged = false;
  std::string registry_json;
};

core::ChainClusterConfig chain_base_config(chain::ChainParams params) {
  core::ChainClusterConfig cfg;
  cfg.params = std::move(params);
  cfg.params.verify_pow = false;
  cfg.params.initial_difficulty = 1e6;
  cfg.params.block_interval = 5.0;
  cfg.params.retarget_window = 0;
  cfg.node_count = 4;
  cfg.miner_count = 3;
  cfg.total_hashrate = 1e6 / 5.0;
  cfg.account_count = 8;
  cfg.link = net::LinkParams{1.0, 0.3, 1e7};
  cfg.seed = 11;
  cfg.obs.trace_capacity = 1u << 16;
  return cfg;
}

ChainOutcome run_chain(core::ChainClusterConfig cfg) {
  core::ChainCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(7);
  core::WorkloadConfig wl;
  wl.account_count = cfg.account_count;
  wl.tx_rate = 0.5;
  wl.duration = 300.0;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(400.0);

  ChainOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.tip = cluster.node(0).chain().tip_hash();
  out.converged = cluster.converged();
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

void expect_chain_modes_equal(chain::ChainParams params, const char* tag) {
  const ChainOutcome mem = run_chain(chain_base_config(params));
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.metrics.included, 0u);
  // The memory run's registry must already carry the storage gauges.
  EXPECT_NE(mem.registry_json.find("storage.log_bytes"), std::string::npos);

  ScratchDir scratch(tag);
  core::ChainClusterConfig cfg = chain_base_config(params);
  cfg.storage = disk_config(scratch);
  const ChainOutcome disk = run_chain(cfg);

  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_EQ(disk.tip, mem.tip);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  // The disk run wrote real files.
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

TEST(StorageEquivalence, ChainUtxoClusterDiskMatchesMemory) {
  expect_chain_modes_equal(chain::bitcoin_like(), "chain_utxo");
}

TEST(StorageEquivalence, ChainAccountClusterDiskMatchesMemory) {
  expect_chain_modes_equal(chain::ethereum_like(), "chain_account");
}

// ----------------------------------------- cluster differential: lattice

struct LatticeOutcome {
  std::string trace;
  core::RunMetrics metrics;
  bool converged = false;
  std::vector<lattice::Amount> balances;
  std::string registry_json;
};

LatticeOutcome run_lattice(const storage::StorageConfig& storage) {
  core::LatticeClusterConfig cfg;
  cfg.node_count = 3;
  cfg.representative_count = 2;
  cfg.account_count = 6;
  cfg.params.work_bits = 2;
  cfg.seed = 99;
  cfg.obs.trace_capacity = 1u << 16;
  cfg.storage = storage;
  core::LatticeCluster cluster(cfg);
  cluster.fund_accounts();
  Rng wl_rng(42);
  core::WorkloadConfig wl;
  wl.account_count = 6;
  wl.tx_rate = 1.0;
  wl.duration = 30.0;
  wl.max_amount = 1000;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(60.0);

  LatticeOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.converged = cluster.converged();
  const lattice::Ledger& ledger = cluster.node(0).ledger();
  for (std::size_t i = 0; i < cfg.account_count; ++i)
    out.balances.push_back(ledger.balance_of(cluster.account(i).account_id()));
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

TEST(StorageEquivalence, LatticeClusterDiskMatchesMemory) {
  const LatticeOutcome mem = run_lattice({});
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.metrics.included, 0u);

  ScratchDir scratch("lattice");
  const LatticeOutcome disk = run_lattice(disk_config(scratch));
  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.balances, mem.balances);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

// ------------------------------------------ cluster differential: tangle

struct TangleOutcome {
  std::string trace;
  core::RunMetrics metrics;
  bool converged = false;
  std::size_t size = 0;
  std::vector<tangle::TxHash> tips;
  std::string registry_json;
};

TangleOutcome run_tangle(const storage::StorageConfig& storage) {
  core::TangleClusterConfig cfg;
  cfg.node_count = 4;
  cfg.account_count = 8;
  cfg.params.work_bits = 2;
  cfg.seed = 5;
  cfg.obs.trace_capacity = 1u << 16;
  cfg.storage = storage;
  core::TangleCluster cluster(cfg);
  cluster.start();
  Rng wl_rng(3);
  core::WorkloadConfig wl;
  wl.account_count = 8;
  wl.tx_rate = 2.0;
  wl.duration = 15.0;
  wl.max_amount = 100;
  cluster.schedule_workload(core::generate_payments(wl, wl_rng));
  cluster.run_for(40.0);

  TangleOutcome out;
  out.trace = cluster.tracer().to_jsonl();
  out.metrics = cluster.metrics();
  out.converged = cluster.converged();
  out.size = cluster.node(0).tangle().size();
  out.tips = cluster.node(0).tangle().tips();
  out.registry_json =
      filter_registry_json(cluster.metrics_registry().to_json().to_string());
  return out;
}

TEST(StorageEquivalence, TangleClusterDiskMatchesMemory) {
  const TangleOutcome mem = run_tangle({});
  EXPECT_TRUE(mem.converged);
  EXPECT_GT(mem.size, 1u);

  ScratchDir scratch("tangle");
  const TangleOutcome disk = run_tangle(disk_config(scratch));
  EXPECT_EQ(disk.trace, mem.trace);
  expect_run_metrics_eq(disk.metrics, mem.metrics);
  EXPECT_TRUE(disk.converged);
  EXPECT_EQ(disk.size, mem.size);
  EXPECT_EQ(disk.tips, mem.tips);
  EXPECT_EQ(disk.registry_json, mem.registry_json);
  EXPECT_FALSE(std::filesystem::is_empty(scratch.path));
}

// ----------------------------------------------- crash recovery: chain

TEST(StorageRecovery, ChainReopenIdempotentAndTornTailConverges) {
  const auto keys = chain::testutil::make_keys(2);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId miner = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();

  ScratchDir scratch("chain_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<chain::BlockHash> tips;  // tip after each block
  std::string dir;
  {
    chain::Blockchain chain(params, genesis);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "chain");
    chain.attach_store(store);
    dir = store->dir();
    for (std::uint64_t h = 1; h <= 3; ++h) {
      const chain::Block b = chain::testutil::seal_block(
          chain, chain.tip_hash(),
          chain::UtxoTxList{chain::UtxoTransaction::coinbase(
              miner, params.block_reward, h)},
          miner);
      ASSERT_TRUE(chain.submit(b));
      tips.push_back(chain.tip_hash());
    }
  }  // writer exits cleanly: segments flushed and closed

  // Clean reopen: replay reconstructs the full chain; replaying again is
  // a no-op (reopen idempotence).
  {
    chain::Blockchain chain(params, genesis);
    auto store =
        std::make_shared<storage::LedgerStore>(scfg, "chain", false);
    EXPECT_EQ(store->log().truncated_tail_bytes(), 0u);
    chain.attach_store(store);
    EXPECT_EQ(chain.replay_from_store(), 3u);
    EXPECT_EQ(chain.tip_hash(), tips[2]);
    EXPECT_EQ(chain.replay_from_store(), 0u);
    EXPECT_EQ(chain.tip_hash(), tips[2]);
  }

  // Kill the writer mid-append: chop into the last frame (block 3's body
  // record). Recovery drops the torn record; the replayed chain converges
  // to the clean prefix — tip at height 2.
  chop_last_segment(dir, 8);
  {
    chain::Blockchain chain(params, genesis);
    auto store =
        std::make_shared<storage::LedgerStore>(scfg, "chain", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    chain.attach_store(store);
    EXPECT_EQ(chain.replay_from_store(), 2u);
    EXPECT_EQ(chain.tip_hash(), tips[1]);
    EXPECT_EQ(chain.height(), 2u);
  }
}

// ---------------------------------------------- crash recovery: lattice

TEST(StorageRecovery, LatticeReopenIdempotentAndTornTailConverges) {
  const lattice::LatticeParams params = lattice::testutil::cheap_params();
  const crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(1);
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(0x500);
  constexpr lattice::Amount kSupply = 1'000'000;

  ScratchDir scratch("lattice_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<lattice::LatticeBlock> blocks;
  lattice::BlockHash full_head, prefix_head;
  std::string dir;
  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat");
    ledger.attach_store(store);
    dir = store->dir();
    Rng rng(9);
    lattice::testutil::Builder build{ledger, rng, params.work_bits};
    blocks.push_back(build.send(genesis_key, alice.account_id(), 10'000));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    blocks.push_back(build.open(alice, blocks[0].hash(), 10'000,
                                genesis_key.account_id()));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    blocks.push_back(build.send(
        alice, crypto::KeyPair::from_seed(0x501).account_id(), 11));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    prefix_head = ledger.head_of(alice.account_id()).value();
    blocks.push_back(build.send(
        alice, crypto::KeyPair::from_seed(0x502).account_id(), 12));
    ASSERT_TRUE(ledger.process(blocks.back()).ok());
    full_head = ledger.head_of(alice.account_id()).value();
  }

  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat", false);
    ledger.attach_store(store);
    EXPECT_EQ(ledger.replay_from_store(), 4u);
    EXPECT_EQ(ledger.head_of(alice.account_id()), full_head);
    EXPECT_TRUE(ledger.conserves_value());
    EXPECT_EQ(ledger.replay_from_store(), 0u);
  }

  // Torn final kBlock frame: replay converges to the surviving prefix.
  chop_last_segment(dir, 8);
  {
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), kSupply);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "lat", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    ledger.attach_store(store);
    EXPECT_EQ(ledger.replay_from_store(), 3u);
    EXPECT_EQ(ledger.head_of(alice.account_id()), prefix_head);
    EXPECT_TRUE(ledger.conserves_value());
  }
}

// ----------------------------------------------- crash recovery: tangle

TEST(StorageRecovery, TangleReopenIdempotentAndTornTailConverges) {
  tangle::TangleParams params;
  params.work_bits = 2;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(2);

  ScratchDir scratch("tangle_crash");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<tangle::TangleTx> txs;
  std::vector<tangle::TxHash> full_tips, prefix_tips;
  std::string dir;
  {
    tangle::Tangle ref(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl");
    ref.attach_store(store);
    dir = store->dir();
    Rng rng(4);
    for (int i = 0; i < 5; ++i) {
      const tangle::TxHash trunk = ref.select_tip(rng);
      const tangle::TxHash branch = ref.select_tip(rng);
      tangle::TangleTx tx = tangle::make_tx(
          ref, issuer, trunk, branch,
          crypto::Sha256::digest(as_bytes("rec-" + std::to_string(i))),
          static_cast<double>(i), rng);
      ASSERT_TRUE(ref.attach(tx).ok());
      txs.push_back(tx);
      if (i == 3) prefix_tips = ref.tips();
    }
    full_tips = ref.tips();
  }

  {
    tangle::Tangle got(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl", false);
    got.attach_store(store);
    EXPECT_EQ(got.replay_from_store(), 5u);
    EXPECT_EQ(got.size(), 6u);  // genesis + 5
    EXPECT_EQ(got.tips(), full_tips);
    EXPECT_EQ(got.replay_from_store(), 0u);
  }

  // Torn final kSite frame: the last transaction is dropped; the replica
  // converges to the 4-transaction prefix, tip set included.
  chop_last_segment(dir, 8);
  {
    tangle::Tangle got(params);
    auto store = std::make_shared<storage::LedgerStore>(scfg, "tgl", false);
    EXPECT_GT(store->log().truncated_tail_bytes(), 0u);
    got.attach_store(store);
    EXPECT_EQ(got.replay_from_store(), 4u);
    EXPECT_EQ(got.size(), 5u);
    EXPECT_EQ(got.tips(), prefix_tips);
  }
}

// ----------------------- corrupted records: doubles a hash cannot take
// Records carry bit-cast doubles, so a damaged one can hold any bit
// pattern there. The hash encodings truncate those doubles to u64, which
// is undefined for NaN, the infinities and values outside [0, 2^64), so
// the decoders refuse such a record and replay skips it.

constexpr double kUnhashable[] = {-5.0,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  std::numeric_limits<double>::infinity(),
                                  1e300};

/// `raw` with the little-endian u64 at `offset` replaced by `v`'s bits.
Bytes with_double_at(Bytes raw, std::size_t offset, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < 8; ++i)
    raw[offset + i] = static_cast<Byte>(bits >> (8 * i));
  return raw;
}

Hash256 corrupt_key(int n) {
  return crypto::Sha256::digest(as_bytes("corrupt-" + std::to_string(n)));
}

TEST(StorageRecovery, ChainReplaySkipsHeaderWithUnhashableDoubles) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000);
  const crypto::AccountId miner = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();
  ScratchDir scratch("chain_unhashable");
  auto store = std::make_shared<storage::LedgerStore>(disk_config(scratch),
                                                      "c");
  chain::Block last;
  {
    chain::Blockchain chain(params, genesis);
    chain.attach_store(store);
    for (std::uint64_t h = 1; h <= 2; ++h) {
      last = chain::testutil::seal_block(
          chain, chain.tip_hash(),
          chain::UtxoTxList{chain::UtxoTransaction::coinbase(
              miner, params.block_reward, h)},
          miner);
      ASSERT_TRUE(chain.submit(last));
    }
  }

  // The height and three 32-byte roots precede the timestamp; the
  // difficulty follows it. Each corrupt header gets a valid body.
  constexpr std::size_t kTimestampAt = 4 + 3 * 32;
  const Bytes header = chain::encode_header_record(last.header);
  const Bytes body = chain::encode_body_record(last);
  int n = 0;
  for (const double bad : kUnhashable) {
    for (const auto& [offset, code] :
         {std::pair{kTimestampAt, "header-record-bad-timestamp"},
          std::pair{kTimestampAt + 8, "header-record-bad-difficulty"}}) {
      const Bytes raw = with_double_at(header, offset, bad);
      const auto decoded = chain::decode_header_record(raw);
      ASSERT_FALSE(decoded) << "accepted " << bad << " at " << offset;
      EXPECT_EQ(decoded.error().code, code);
      store->log().append(storage::RecordType::kHeader, corrupt_key(n), raw);
      store->log().append(storage::RecordType::kBody, corrupt_key(n), body);
      ++n;
    }
  }

  chain::Blockchain got(params, genesis);
  got.attach_store(store);
  EXPECT_EQ(got.replay_from_store(), 2u);
  EXPECT_EQ(got.tip_hash(), last.hash());
}

TEST(StorageRecovery, TangleReplaySkipsSiteWithUnhashableTimestamp) {
  tangle::TangleParams params;
  params.work_bits = 2;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(3);
  ScratchDir scratch("tangle_unhashable");
  auto store = std::make_shared<storage::LedgerStore>(disk_config(scratch),
                                                      "t");
  tangle::TangleTx last;
  std::vector<tangle::TxHash> tips;
  {
    tangle::Tangle ref(params);
    ref.attach_store(store);
    Rng rng(6);
    for (int i = 0; i < 3; ++i) {
      const tangle::TxHash trunk = ref.select_tip(rng);
      last = tangle::make_tx(
          ref, issuer, trunk, ref.select_tip(rng),
          crypto::Sha256::digest(as_bytes("ts-" + std::to_string(i))),
          static_cast<double>(i), rng);
      ASSERT_TRUE(ref.attach(last).ok());
    }
    tips = ref.tips();
  }

  // Five 32-byte fields precede the timestamp.
  int n = 0;
  for (const double bad : kUnhashable) {
    const Bytes raw = with_double_at(last.serialize(), 5 * 32, bad);
    const auto decoded = tangle::TangleTx::deserialize(raw);
    ASSERT_FALSE(decoded) << "accepted " << bad;
    EXPECT_EQ(decoded.error().code, "site-record-bad-timestamp");
    store->log().append(storage::RecordType::kSite, corrupt_key(n++), raw);
  }

  tangle::Tangle got(params);
  got.attach_store(store);
  EXPECT_EQ(got.replay_from_store(), 3u);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(got.tips(), tips);
}

// ------------------------------------------- chain codec decoder fuzzing

Bytes body_with_counts(std::uint8_t model,
                       std::initializer_list<std::uint64_t> varints) {
  Writer w;
  w.u8(model);
  for (const std::uint64_t v : varints) w.varint(v);
  return std::move(w).take();
}

// A count of transactions, inputs or outputs that the record's bytes
// cannot hold must fail in the read loop instead of sizing an allocation
// (2^40 transactions threw std::bad_alloc, 2^62 std::length_error).
TEST(ChainCodec, OversizedCountsReturnErrors) {
  for (const std::uint64_t count : {std::uint64_t{1} << 40,
                                    std::uint64_t{1} << 62}) {
    SCOPED_TRACE(count);
    for (const Bytes& raw : {
             body_with_counts(0, {count}),        // UTXO transactions
             body_with_counts(1, {count}),        // account transactions
             body_with_counts(0, {1, count}),     // inputs of one tx
             body_with_counts(0, {1, 0, count}),  // outputs of one tx
         }) {
      chain::Block block;
      EXPECT_FALSE(chain::decode_body_record(raw, block).ok());
    }
  }
}

// Flip, truncate or splice valid header and body records (the mutation
// loop of StorageFrames.SeededMutationRecoversAStablePrefix): every
// decoder must decode the result or return an error, and what decodes
// must re-encode to the same bytes (each record has one encoding).
TEST(ChainCodec, SeededMutationDecodesOrReturnsAnError) {
  const auto keys = chain::testutil::make_keys(2);
  Rng rng(9);
  chain::UtxoTransaction spend;
  for (std::uint32_t i = 0; i < 2; ++i)
    spend.inputs.push_back(chain::TxIn{
        chain::Outpoint{corrupt_key(static_cast<int>(i)), i},
        keys[0].public_key(),
        {}});
  spend.outputs.push_back(chain::TxOut{700, keys[1].account_id()});
  spend.outputs.push_back(chain::TxOut{299, keys[0].account_id()});
  spend.sign_all({keys[0]}, rng);
  chain::Block utxo;
  utxo.header.height = 7;
  utxo.header.timestamp = 123.25;
  utxo.header.difficulty = 4096.0;
  utxo.header.nonce = 0xfeedULL;
  utxo.txs = chain::UtxoTxList{
      chain::UtxoTransaction::coinbase(keys[1].account_id(), 50, 7), spend};
  chain::AccountTransaction pay;
  pay.to = keys[1].account_id();
  pay.value = 5;
  pay.data_size = 12;
  pay.sign(keys[0], rng);
  chain::Block account;
  account.txs = chain::AccountTxList{pay, pay};

  const std::vector<Bytes> records = {chain::encode_header_record(utxo.header),
                                      chain::encode_body_record(utxo),
                                      chain::encode_body_record(account)};

  // Random mutation rarely forms a padded varint, so pin one: the account
  // body's transaction count 02 re-encoded as 82 00 is the same count in a
  // second encoding and must not decode.
  Bytes padded = records[2];
  ASSERT_EQ(padded[1], 0x02);
  padded[1] = 0x82;
  padded.insert(padded.begin() + 2, 0x00);
  chain::Block padded_block;
  EXPECT_FALSE(chain::decode_body_record(padded, padded_block).ok());

  std::size_t decoded = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    SCOPED_TRACE(seed);
    Rng mut(seed);
    Bytes data = records[mut.uniform(records.size())];
    testutil::mutate_bytes(data, mut, records);

    if (const auto header = chain::decode_header_record(data)) {
      ++decoded;
      EXPECT_EQ(chain::encode_header_record(*header), data);
    } else {
      ++rejected;
    }
    chain::Block block;
    if (chain::decode_body_record(data, block).ok()) {
      ++decoded;
      EXPECT_EQ(chain::encode_body_record(block), data);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

// The same mutation loop over a record type T with a Result<T> decoder
// T::deserialize and the encoder T::serialize.
template <typename T>
void expect_mutants_decode_exactly_or_fail(const std::vector<Bytes>& records) {
  std::size_t decoded = 0, rejected = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    SCOPED_TRACE(seed);
    Rng mut(seed);
    Bytes data = records[mut.uniform(records.size())];
    testutil::mutate_bytes(data, mut, records);
    if (const auto rec = T::deserialize(data)) {
      ++decoded;
      EXPECT_EQ(rec->serialize(), data);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(decoded, 100u);
  EXPECT_GT(rejected, 100u);
}

TEST(LatticeCodec, SeededMutationDecodesOrReturnsAnError) {
  const crypto::KeyPair key = crypto::KeyPair::from_seed(0x700);
  Rng rng(10);
  std::vector<Bytes> records;
  for (const lattice::BlockType type :
       {lattice::BlockType::kOpen, lattice::BlockType::kSend,
        lattice::BlockType::kChange}) {
    lattice::LatticeBlock b;
    b.type = type;
    b.account = key.account_id();
    if (type != lattice::BlockType::kOpen) b.previous = corrupt_key(1);
    b.balance = 1'000 + static_cast<lattice::Amount>(type);
    b.link = corrupt_key(2);
    b.representative = key.account_id();
    b.work = 0xabcdefULL;
    b.sign(key, rng);
    records.push_back(b.serialize());
  }
  expect_mutants_decode_exactly_or_fail<lattice::LatticeBlock>(records);
}

TEST(TangleCodec, SeededMutationDecodesOrReturnsAnError) {
  const crypto::KeyPair key = crypto::KeyPair::from_seed(0x701);
  Rng rng(11);
  std::vector<Bytes> records;
  for (int i = 0; i < 2; ++i) {
    tangle::TangleTx tx;
    tx.issuer = key.account_id();
    tx.trunk = corrupt_key(3 + i);
    tx.branch = corrupt_key(5);
    tx.payload = corrupt_key(6 + i);
    if (i == 1) tx.spend_key = corrupt_key(8);
    tx.timestamp = 12.375 + i;
    tx.own_weight = 1 + static_cast<std::uint64_t>(i);
    tx.work = 0x1234ULL;
    tx.sign(key, rng);
    records.push_back(tx.serialize());
  }
  expect_mutants_decode_exactly_or_fail<tangle::TangleTx>(records);
}

/// Grows `chain` by six blocks on its tip. Each rolls one coin of `key`'s
/// genesis allocation forward, so every body past genesis holds a coinbase
/// and a signed spend. Returns genesis and the six blocks, by height.
std::vector<chain::Block> grow_paying_chain(chain::Blockchain& chain,
                                            const crypto::KeyPair& key) {
  const crypto::AccountId miner = key.account_id();
  std::vector<chain::Block> blocks{*chain.at_height(0)};
  chain::Outpoint coin{blocks[0].utxo_txs().front().id(), 0};
  Rng rng(12);
  for (std::uint32_t h = 1; h <= 6; ++h) {
    chain::UtxoTransaction pay;
    pay.inputs.push_back(chain::TxIn{coin, key.public_key(), {}});
    pay.outputs.push_back(chain::TxOut{1'000'000, miner});
    pay.sign_all({key}, rng);
    coin = chain::Outpoint{pay.id(), 0};
    blocks.push_back(chain::testutil::seal_block(
        chain, chain.tip_hash(),
        chain::UtxoTxList{chain::UtxoTransaction::coinbase(
                              miner, chain.params().block_reward, h),
                          pay},
        miner));
    EXPECT_TRUE(chain.submit(blocks.back()));
  }
  return blocks;
}

// offload_bodies drops resident bodies in disk mode and names read_block
// as the way to reach them: every offloaded block must read back from the
// log with its original hash and transaction ids.
TEST(StorageRecovery, OffloadedBodiesReadBackThroughReadBlock) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();
  ScratchDir scratch("read_block");

  chain::Blockchain chain(params, genesis);
  auto store =
      std::make_shared<storage::LedgerStore>(disk_config(scratch), "chain");
  chain.attach_store(store);
  ASSERT_TRUE(store->disk());
  const std::vector<chain::Block> blocks = grow_paying_chain(chain, keys[0]);
  ASSERT_EQ(chain.height(), 6u);

  // Tip 6, keep 2: the bodies of heights 0-3 leave RAM.
  EXPECT_GT(chain.offload_bodies(2), 0u);
  std::size_t offloaded = 0;
  for (const chain::Block& b : blocks) {
    SCOPED_TRACE(b.header.height);
    const bool resident = !chain.find(b.hash())->utxo_txs().empty();
    EXPECT_EQ(resident, b.header.height >= 4);
    if (!resident) ++offloaded;
    const auto back = chain.read_block(b.hash());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->hash(), b.hash());
    EXPECT_EQ(back->tx_ids(), b.tx_ids());
  }
  EXPECT_EQ(offloaded, 4u);

  const auto unknown = chain.read_block(corrupt_key(0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, "not-in-log");
}

// An offloaded body is still the block's body: proving a transaction in it
// reads the body back from the log, and the proof verifies against a light
// client that holds only headers.
TEST(StorageRecovery, OffloadedTxProvesToLightClient) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();
  ScratchDir scratch("offload_proof");

  chain::Blockchain chain(params, chain::testutil::fund_all(keys, 1'000'000));
  chain.attach_store(
      std::make_shared<storage::LedgerStore>(disk_config(scratch), "chain"));
  const std::vector<chain::Block> blocks = grow_paying_chain(chain, keys[0]);
  chain::LightClient spv(params);
  ASSERT_TRUE(spv.set_genesis(blocks[0].header).ok());
  for (std::size_t h = 1; h < blocks.size(); ++h)
    ASSERT_TRUE(spv.accept_header(blocks[h].header).ok()) << h;

  ASSERT_GT(chain.offload_bodies(2), 0u);
  ASSERT_TRUE(chain.find(blocks[2].hash())->utxo_txs().empty());
  const chain::TxId paid = blocks[2].utxo_txs()[1].id();
  const auto proof = chain::make_inclusion_proof(chain, paid, 2);
  ASSERT_TRUE(proof.ok()) << proof.error().to_string();
  const auto confirmations = spv.verify_inclusion(*proof);
  ASSERT_TRUE(confirmations.ok()) << confirmations.error().to_string();
  EXPECT_EQ(*confirmations, 5u);  // heights 2..6
}

// A disk-mode node asked for a block whose body it offloaded serves the
// whole block, read back from its log: the merkle root matches the header
// and a peer holding the parent connects it.
TEST(StorageRecovery, NodeServesOffloadedBlockWithItsBody) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();
  ScratchDir scratch("offload_serve");

  sim::Simulation sim;
  net::Network net(sim, Rng(1));
  chain::NodeConfig config;
  config.store =
      std::make_shared<storage::LedgerStore>(disk_config(scratch), "chain");
  chain::ChainNode server(net, params, genesis, config, Rng(2));
  const std::vector<chain::Block> blocks =
      grow_paying_chain(server.chain(), keys[0]);
  ASSERT_GT(server.chain().offload_bodies(2), 0u);
  ASSERT_TRUE(server.chain().find(blocks[2].hash())->utxo_txs().empty());

  const net::NodeId asker = net.add_node();
  net.connect(asker, server.id());
  std::vector<chain::Block> served;
  net.set_handler(asker, [&](const net::Message& m) {
    if (m.type == net::msg_type("block"))
      served.push_back(net::payload_as<chain::Block>(m));
  });
  net.send(asker, server.id(),
           net::make_message("get-block", blocks[2].hash(), 40));
  sim.run();

  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].hash(), blocks[2].hash());
  EXPECT_EQ(served[0].compute_merkle_root(), served[0].header.merkle_root);
  EXPECT_EQ(served[0].tx_ids(), blocks[2].tx_ids());

  chain::Blockchain peer(params, genesis);
  ASSERT_TRUE(peer.submit(blocks[1]).ok());
  const auto res = peer.submit(served[0]);
  ASSERT_TRUE(res.ok()) << res.error().to_string();
  EXPECT_EQ(res->outcome, chain::Accept::kConnected);
}

// Memory mode keeps the log's catalog and byte arithmetic but no record
// bytes, so replay and read_block find nothing there: a memory-mode node
// catches up from its peers, and replay from its own store is disk-only.
TEST(StorageRecovery, MemoryModeStoreHasNothingToReplay) {
  const storage::StorageConfig memory;  // the default mode
  {
    const auto keys = chain::testutil::make_keys(1);
    const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000);
    const crypto::AccountId miner = keys[0].account_id();
    const chain::ChainParams params = chain::testutil::cheap_pow_utxo();
    auto store = std::make_shared<storage::LedgerStore>(memory, "c");
    chain::Blockchain chain(params, genesis);
    chain.attach_store(store);
    const chain::Block b = chain::testutil::seal_block(
        chain, chain.tip_hash(),
        chain::UtxoTxList{
            chain::UtxoTransaction::coinbase(miner, params.block_reward, 1)},
        miner);
    ASSERT_TRUE(chain.submit(b));
    ASSERT_TRUE(store->log().contains(storage::RecordType::kBody, b.hash()));
    const auto back = chain.read_block(b.hash());
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, "not-in-log");

    chain::Blockchain fresh(params, genesis);
    fresh.attach_store(store);
    EXPECT_EQ(fresh.replay_from_store(), 0u);
    EXPECT_EQ(fresh.height(), 0u);
  }
  {
    const lattice::LatticeParams params = lattice::testutil::cheap_params();
    const crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(1);
    const crypto::KeyPair alice = crypto::KeyPair::from_seed(0x700);
    auto store = std::make_shared<storage::LedgerStore>(memory, "lat");
    lattice::Ledger ledger(params, genesis_key.account_id(),
                           genesis_key.account_id(), 1'000'000);
    ledger.attach_store(store);
    Rng rng(9);
    lattice::testutil::Builder build{ledger, rng, params.work_bits};
    ASSERT_TRUE(
        ledger.process(build.send(genesis_key, alice.account_id(), 10)).ok());
    ASSERT_EQ(store->log().live_records(), 2u);

    lattice::Ledger fresh(params, genesis_key.account_id(),
                          genesis_key.account_id(), 1'000'000);
    fresh.attach_store(store);
    EXPECT_EQ(fresh.replay_from_store(), 0u);
  }
  {
    tangle::TangleParams params;
    params.work_bits = 2;
    const crypto::KeyPair issuer = crypto::KeyPair::from_seed(3);
    auto store = std::make_shared<storage::LedgerStore>(memory, "tgl");
    tangle::Tangle ref(params);
    ref.attach_store(store);
    Rng rng(6);
    for (int i = 0; i < 3; ++i) {
      const tangle::TxHash trunk = ref.select_tip(rng);
      ASSERT_TRUE(ref.attach(tangle::make_tx(
                                 ref, issuer, trunk, ref.select_tip(rng),
                                 crypto::Sha256::digest(as_bytes(
                                     "mem-" + std::to_string(i))),
                                 static_cast<double>(i), rng))
                      .ok());
    }
    ASSERT_EQ(store->log().live_records(), 4u);

    tangle::Tangle fresh(params);
    fresh.attach_store(store);
    EXPECT_EQ(fresh.replay_from_store(), 0u);
    EXPECT_EQ(fresh.size(), 1u);
  }
}

// ------------------------------------- pruning as log-catalog operations
// Memory mode suffices here: the equivalence tests above prove the
// accounting is mode-independent, so byte movements are identical on disk.

TEST(StoragePruning, ChainBodyPruneShrinksLogKeepsTip) {
  const auto keys = chain::testutil::make_keys(1);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId miner = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_utxo();

  chain::Blockchain chain(params, genesis);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-chain");
  chain.attach_store(store);
  for (std::uint64_t h = 1; h <= 6; ++h) {
    const chain::Block b = chain::testutil::seal_block(
        chain, chain.tip_hash(),
        chain::UtxoTxList{
            chain::UtxoTransaction::coinbase(miner, params.block_reward, h)},
        miner);
    ASSERT_TRUE(chain.submit(b));
  }
  const chain::BlockHash tip = chain.tip_hash();
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(chain.prune_bodies(2), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(chain.tip_hash(), tip);
  // Headers survive body pruning: header-only history remains readable.
  EXPECT_TRUE(store->log().contains(storage::RecordType::kHeader, tip));
}

TEST(StoragePruning, ChainStatePruneShrinksLogKeepsState) {
  const auto keys = chain::testutil::make_keys(2);
  const chain::GenesisSpec genesis = chain::testutil::fund_all(keys, 1'000'000);
  const crypto::AccountId proposer = keys[0].account_id();
  const chain::ChainParams params = chain::testutil::cheap_pow_account();
  Rng rng(6);

  chain::Blockchain chain(params, genesis);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-acct");
  chain.attach_store(store);
  for (std::uint64_t nonce = 0; nonce < 6; ++nonce) {
    chain::AccountTransaction tx;
    tx.to = keys[1].account_id();
    tx.value = 100;
    tx.nonce = nonce;
    tx.gas_limit = tx.intrinsic_gas();
    tx.gas_price = 1;
    tx.sign(keys[0], rng);
    const chain::Block b = chain::testutil::seal_account_tip(
        chain, chain::AccountTxList{std::move(tx)}, proposer);
    ASSERT_TRUE(chain.submit(b));
  }
  const chain::BlockHash tip = chain.tip_hash();
  const auto balance = chain.world_state().balance_of(keys[1].account_id());
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(chain.prune_states(2), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(chain.tip_hash(), tip);
  EXPECT_EQ(chain.world_state().balance_of(keys[1].account_id()), balance);
}

TEST(StoragePruning, LatticeHeadOnlyPruneShrinksLogKeepsHeads) {
  const lattice::LatticeParams params = lattice::testutil::cheap_params();
  const crypto::KeyPair genesis_key = crypto::KeyPair::from_seed(1);
  const crypto::KeyPair alice = crypto::KeyPair::from_seed(0x600);
  constexpr lattice::Amount kSupply = 1'000'000;

  lattice::Ledger ledger(params, genesis_key.account_id(),
                         genesis_key.account_id(), kSupply);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-lat");
  ledger.attach_store(store);
  Rng rng(9);
  lattice::testutil::Builder build{ledger, rng, params.work_bits};
  const lattice::LatticeBlock fund =
      build.send(genesis_key, alice.account_id(), 10'000);
  ASSERT_TRUE(ledger.process(fund).ok());
  ASSERT_TRUE(
      ledger
          .process(build.open(alice, fund.hash(), 10'000,
                              genesis_key.account_id()))
          .ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ledger
                    .process(build.send(
                        alice,
                        crypto::KeyPair::from_seed(0x610 + i).account_id(),
                        10 + i))
                    .ok());
  }
  const lattice::BlockHash head = ledger.head_of(alice.account_id()).value();
  // Only cemented history may be pruned (§IV-B irreversibility).
  ASSERT_TRUE(ledger.cement(head).ok());
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(ledger.prune_history(), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  EXPECT_EQ(ledger.head_of(alice.account_id()), head);
  // The head block's record survives (the §V-B "current" node keeps it).
  EXPECT_TRUE(store->log().contains(storage::RecordType::kBlock, head));
}

TEST(StoragePruning, TangleHeadOnlyPruneShrinksLogKeepsTips) {
  tangle::TangleParams params;
  params.work_bits = 2;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(3);

  tangle::Tangle tangle(params);
  auto store = std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-tgl");
  tangle.attach_store(store);
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    const tangle::TxHash trunk = tangle.select_tip(rng);
    const tangle::TxHash branch = tangle.select_tip(rng);
    ASSERT_TRUE(tangle
                    .attach(tangle::make_tx(
                        tangle, issuer, trunk, branch,
                        crypto::Sha256::digest(
                            as_bytes("pr-" + std::to_string(i))),
                        static_cast<double>(i), rng))
                    .ok());
  }
  const auto tips = tangle.tips();
  const std::size_t size = tangle.size();
  const std::uint64_t before = store->log_bytes();

  EXPECT_GT(tangle.prune_history(), 0u);
  EXPECT_LT(store->log_bytes(), before);
  EXPECT_GT(store->pruned_bytes(), 0u);
  // Storage-only discipline: the in-RAM DAG is untouched.
  EXPECT_EQ(tangle.tips(), tips);
  EXPECT_EQ(tangle.size(), size);
  for (const tangle::TxHash& tip : tips)
    EXPECT_TRUE(store->log().contains(storage::RecordType::kSite, tip));
}

TEST(StoragePruning, TangleIndexMatchesOracleAfterReplayAndPrune) {
  // A weighted, keyed history written through to disk, then (a) replayed
  // into a fresh replica by replay_from_store() and (b) attached to a
  // memory-mode replica that prunes its log. Both indexes must match the
  // oracle and agree on every cumulative weight.
  tangle::TangleParams params;
  params.work_bits = 2;
  params.max_own_weight = 64;
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(4);
  ScratchDir scratch("tangle_oracle");
  const storage::StorageConfig scfg = disk_config(scratch);

  std::vector<tangle::TangleTx> accepted;
  {
    tangle::Tangle writer(params);
    writer.attach_store(std::make_shared<storage::LedgerStore>(scfg, "tgl"));
    Rng rng(8);
    // Tips for three transactions are selected before any attaches, so
    // the history is wide rather than a chain.
    for (int i = 0; i < 60; i += 3) {
      std::vector<tangle::TangleTx> batch;
      for (int k = i; k < i + 3; ++k) {
        Hash256 spend{};
        if (k % 6 == 0)
          spend = crypto::Sha256::digest(
              as_bytes("oracle-coin-" + std::to_string(k / 6 % 2)));
        std::vector<Hash256> avoid;
        if (!spend.is_zero()) avoid.push_back(spend);
        const tangle::TxHash trunk = writer.select_tip(rng, avoid);
        const tangle::TxHash branch = writer.select_tip(rng, avoid);
        batch.push_back(tangle::make_tx(
            writer, issuer, trunk, branch,
            crypto::Sha256::digest(as_bytes("or-" + std::to_string(k))),
            static_cast<double>(k), rng, spend, 1 + rng.uniform(64)));
      }
      for (const tangle::TangleTx& tx : batch)
        if (writer.attach(tx).ok()) accepted.push_back(tx);
    }
  }
  ASSERT_GT(accepted.size(), 40u);

  tangle::Tangle replayed(params);
  replayed.attach_store(
      std::make_shared<storage::LedgerStore>(scfg, "tgl", false));
  EXPECT_EQ(replayed.replay_from_store(), accepted.size());
  tangle::testutil::expect_index_matches_oracle(replayed);

  tangle::Tangle pruned(params);
  pruned.attach_store(std::make_shared<storage::LedgerStore>(
      storage::StorageConfig{}, "prune-oracle"));
  for (const tangle::TangleTx& tx : accepted)
    ASSERT_TRUE(pruned.attach(tx).ok());
  EXPECT_GT(pruned.prune_history(), 0u);
  tangle::testutil::expect_index_matches_oracle(pruned);

  for (const tangle::TangleTx& tx : accepted)
    EXPECT_EQ(replayed.cumulative_weight(tx.hash()),
              pruned.cumulative_weight(tx.hash()));
}

// ---------------------------------------- per-tx weights (PR 8 carry-over)

TEST(TangleWeights, RejectsZeroAndOverMaxWeight) {
  tangle::TangleParams params;
  params.work_bits = 2;
  params.max_own_weight = 4;
  tangle::Tangle tangle(params);
  const crypto::KeyPair issuer = crypto::KeyPair::from_seed(7);
  Rng rng(1);

  tangle::TangleTx heavy = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-over")), 1.0, rng, {}, 5);
  const Status over = tangle.attach(heavy);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.error().code, "bad-weight");

  tangle::TangleTx zero = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-zero")), 1.0, rng, {}, 0);
  const Status z = tangle.attach(zero);
  ASSERT_FALSE(z.ok());
  EXPECT_EQ(z.error().code, "bad-weight");

  tangle::TangleTx ok = tangle::make_tx(
      tangle, issuer, tangle.genesis(), tangle.genesis(),
      crypto::Sha256::digest(as_bytes("w-ok")), 1.0, rng, {}, 4);
  EXPECT_TRUE(tangle.attach(ok).ok());
}

TEST(TangleWeights, CumulativeWeightMonotoneInOwnWeight) {
  // A fixed 4-transaction chain issued at own weight W: the cumulative
  // weight of the chain's root is 4W (its future cone is the whole chain)
  // and the genesis sees 1 + 4W. Larger W strictly increases both — the
  // lever the large-weight-spam adversary pulls.
  std::uint64_t prev_root = 0, prev_genesis = 0;
  for (const std::uint64_t w : {1u, 8u, 64u}) {
    tangle::TangleParams params;
    params.work_bits = 2;
    params.max_own_weight = 64;
    tangle::Tangle tangle(params);
    const crypto::KeyPair issuer = crypto::KeyPair::from_seed(11);
    Rng rng(2);
    tangle::TxHash parent = tangle.genesis();
    tangle::TxHash root{};
    for (int i = 0; i < 4; ++i) {
      tangle::TangleTx tx = tangle::make_tx(
          tangle, issuer, parent, parent,
          crypto::Sha256::digest(as_bytes("wm-" + std::to_string(i))),
          static_cast<double>(i), rng, {}, w);
      ASSERT_TRUE(tangle.attach(tx).ok());
      if (i == 0) root = tx.hash();
      parent = tx.hash();
    }
    const std::uint64_t cw_root = tangle.cumulative_weight(root);
    const std::uint64_t cw_genesis = tangle.cumulative_weight(tangle.genesis());
    EXPECT_EQ(cw_root, 4 * w);
    EXPECT_EQ(cw_genesis, 1 + 4 * w);
    EXPECT_GT(cw_root, prev_root);
    EXPECT_GT(cw_genesis, prev_genesis);
    prev_root = cw_root;
    prev_genesis = cw_genesis;
  }
}

}  // namespace
}  // namespace dlt
