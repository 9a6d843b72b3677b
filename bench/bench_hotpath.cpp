// Hot-path crypto measurement harness.
//
// Two layers of evidence for the caching overhaul:
//  1. Micro: ops/sec for the primitives (SHA-256 through the dispatched and
//     the portable compress, tagged hashing, digest memoization, PoW
//     midstate, signature-cache hits vs real verifies).
//  2. Macro: the same saturated 8-node ChainCluster run on one seed,
//     caches off / on. Final metrics must be bit-identical across both
//     (the caches are semantics-preserving); wall-clock and sigcache hit
//     rate quantify the win.
//
// Results also land in BENCH_hotpath.json for tooling.
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>

#include "chain/transaction.hpp"
#include "core/chain_cluster.hpp"
#include "core/json_report.hpp"
#include "core/table.hpp"
#include "crypto/digest_cache.hpp"
#include "crypto/hash.hpp"
#include "crypto/hashcash.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "crypto/sigcache.hpp"

using namespace dlt;
using namespace dlt::core;

namespace {

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --------------------------------------------------------------------------
// Micro benchmarks.

struct MicroResult {
  std::string name;
  double ops_per_sec = 0;
};

// MB/s of `hash_chunk` over 64 chunks of 1 MiB each.
template <typename Fn>
double sha256_mb_per_sec(Fn&& hash_chunk) {
  const Bytes chunk(1 << 20, Byte{0x5a});
  constexpr int kChunks = 64;
  volatile std::uint8_t sink = 0;
  const double secs = time_seconds([&] {
    for (int i = 0; i < kChunks; ++i) sink = hash_chunk(chunk);
  });
  (void)sink;
  return kChunks / secs;
}

// Sha256 runs the compress that CPUID dispatch chose.
MicroResult micro_sha256() {
  return {"sha256_mb_per_sec", sha256_mb_per_sec([](const Bytes& chunk) {
            return crypto::Sha256::digest(chunk).v[0];
          })};
}

// The portable compress over the same chunks: the A/B partner of
// sha256_mb_per_sec on a CPU where dispatch chose SHA-NI.
MicroResult micro_sha256_portable() {
  return {"sha256_portable_mb_per_sec",
          sha256_mb_per_sec([](const Bytes& chunk) {
            std::uint32_t state[8] = {};
            crypto::sha256_compress_portable(state, chunk.data(),
                                             chunk.size() / 64);
            return static_cast<std::uint8_t>(state[0]);
          })};
}

MicroResult micro_tagged_hash() {
  const Bytes payload(100, Byte{0x11});
  constexpr int kIters = 200'000;
  volatile std::uint8_t sink = 0;
  const double secs = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = static_cast<std::uint8_t>(
          crypto::tagged_hash("bench/tag", payload).bytes()[0]);
  });
  (void)sink;
  return {"tagged_hash_ops_per_sec", kIters / secs};
}

chain::UtxoTransaction sample_tx() {
  Rng rng(1);
  const auto key = crypto::KeyPair::from_seed(1);
  chain::UtxoTransaction tx;
  for (std::uint32_t i = 0; i < 2; ++i)
    tx.inputs.push_back(chain::TxIn{
        chain::Outpoint{crypto::Sha256::digest(as_bytes("coin")),
                        i},
        key.public_key(),
        {}});
  tx.outputs.push_back(chain::TxOut{100, key.account_id()});
  tx.outputs.push_back(chain::TxOut{50, key.account_id()});
  tx.sign_all({key, key}, rng);
  return tx;
}

std::pair<MicroResult, MicroResult> micro_tx_id() {
  const chain::UtxoTransaction tx = sample_tx();
  constexpr int kIters = 500'000;
  volatile std::uint8_t sink = 0;

  crypto::DigestCache::set_enabled(false);
  const double uncached = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = static_cast<std::uint8_t>(tx.id().bytes()[0]);
  });
  crypto::DigestCache::set_enabled(true);
  const double memoized = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = static_cast<std::uint8_t>(tx.id().bytes()[0]);
  });
  (void)sink;
  return {{"tx_id_uncached_ops_per_sec", kIters / uncached},
          {"tx_id_memoized_ops_per_sec", kIters / memoized}};
}

std::pair<MicroResult, MicroResult> micro_pow() {
  const Bytes payload(80, Byte{0x77});
  constexpr int kIters = 300'000;
  volatile std::uint8_t sink = 0;
  const double full = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = static_cast<std::uint8_t>(
          crypto::pow_hash(payload, static_cast<std::uint64_t>(i))
              .bytes()[0]);
  });
  const crypto::PowMidstate mid(payload);
  const double tail = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = static_cast<std::uint8_t>(
          mid.digest(static_cast<std::uint64_t>(i)).bytes()[0]);
  });
  (void)sink;
  return {{"pow_hash_ops_per_sec", kIters / full},
          {"pow_midstate_ops_per_sec", kIters / tail}};
}

std::pair<MicroResult, MicroResult> micro_sig_verify() {
  Rng rng(2);
  const auto key = crypto::KeyPair::from_seed(2);
  const Hash256 sighash = crypto::Sha256::digest(as_bytes("m"));
  const crypto::Signature sig = key.sign(sighash.bytes(), rng);
  constexpr int kIters = 200'000;
  volatile bool sink = false;

  const double real = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = crypto::verify_cached(nullptr, key.public_key(), sighash, sig);
  });
  crypto::SignatureCache cache;
  cache.insert(key.public_key(), sighash, sig);
  const double cached = time_seconds([&] {
    for (int i = 0; i < kIters; ++i)
      sink = crypto::verify_cached(&cache, key.public_key(), sighash, sig);
  });
  (void)sink;
  return {{"sig_verify_ops_per_sec", kIters / real},
          {"sig_cache_hit_ops_per_sec", kIters / cached}};
}

MicroResult micro_mining() {
  const Bytes payload(80, Byte{0x3c});
  std::uint64_t tries = 0;
  const double secs = time_seconds([&] {
    // Several independent 14-bit puzzles; tries accumulate.
    for (std::uint64_t s = 0; s < 8; ++s) {
      auto sol = crypto::solve(payload, 14, s * 0x100000);
      if (sol) tries += sol->tries;
    }
  });
  return {"mining_hashes_per_sec", static_cast<double>(tries) / secs};
}

// --------------------------------------------------------------------------
// Macro: saturated 8-node cluster, caches on vs off.

std::string fingerprint(const RunMetrics& m) {
  std::ostringstream os;
  os << m.submitted << "/" << m.rejected << "/" << m.included << "/"
     << m.confirmed << "/" << m.pending_end << "/" << m.blocks_produced
     << "/" << m.reorgs << "/" << m.orphaned_blocks << "/" << m.stored_bytes
     << "/" << m.messages << "/" << m.message_bytes;
  return os.str();
}

struct ClusterRun {
  double wall = 0;
  std::string fingerprint;
  std::uint64_t included = 0;
  double hit_rate = 0;
  std::uint64_t sig_checks = 0;
  std::string metrics_json;
  std::string trace_summary_json;
};

ClusterRun run_cluster(bool caches_on) {
  ChainClusterConfig cfg;
  cfg.params = chain::bitcoin_like();
  cfg.params.verify_pow = false;
  cfg.params.block_interval = 20.0;
  cfg.params.retarget_window = 0;
  cfg.params.initial_difficulty = 1e6;
  cfg.node_count = 8;
  cfg.miner_count = 2;
  cfg.total_hashrate = 1e6 / 20.0;
  cfg.account_count = 20;
  // Coins sized so a typical payment (amount+fee in [2500, 4000]) gathers
  // two inputs: two signature checks per payment without a long wallet
  // scan per submission.
  cfg.initial_balance = 2'500;
  cfg.genesis_outputs_per_account = 640;
  cfg.seed = 99;
  cfg.crypto.shared_sigcache = caches_on;

  crypto::DigestCache::set_enabled(caches_on);
  ClusterRun out;
  out.wall = time_seconds([&] {
    ChainCluster cluster(cfg);
    cluster.start();
    Rng wl_rng(12);
    WorkloadConfig wl;
    wl.account_count = 20;
    wl.tx_rate = 25.0;
    wl.duration = 240.0;
    wl.min_amount = 1500;
    wl.max_amount = 3000;
    cluster.schedule_workload(generate_payments(wl, wl_rng));
    cluster.run_for(300.0);

    const RunMetrics m = cluster.metrics();
    out.fingerprint = fingerprint(m);
    out.included = m.included;
    if (const crypto::SignatureCache* sc = cluster.sigcache()) {
      out.hit_rate = sc->stats().hit_rate();
      out.sig_checks = sc->stats().hits + sc->stats().misses;
    }
    out.metrics_json = cluster.metrics_json().to_string();
    out.trace_summary_json = cluster.trace_summary_json().to_string();
  });
  crypto::DigestCache::set_enabled(true);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Single-config mode for profilers: run just one macro cluster pass.
  if (argc > 1) {
    const std::string mode = argv[1];
    ClusterRun r;
    if (mode == "--cluster-off")
      r = run_cluster(false);
    else if (mode == "--cluster-on")
      r = run_cluster(true);
    else {
      std::cerr << "usage: bench_hotpath [--cluster-off|--cluster-on]\n";
      return 2;
    }
    std::cout << mode << ": wall " << fmt(r.wall, 2) << " s, metrics "
              << r.fingerprint << "\n";
    return 0;
  }

  std::cout << "=== Hot-path crypto benchmarks ===\n\n";

  JsonObject report;
  JsonObject micro_json;

  std::cout << "Micro (primitive ops/sec):\n";
  Table micro({"primitive", "ops/sec"});
  auto add_micro = [&](const MicroResult& r) {
    micro.row({r.name, fmt(r.ops_per_sec, 0)});
    micro_json.put(r.name, r.ops_per_sec);
  };
  add_micro(micro_sha256());
  add_micro(micro_sha256_portable());
  const char* sha256_path =
      crypto::sha256_compress() == crypto::sha256_compress_portable
          ? "portable"
          : "sha-ni";
  micro_json.put("sha256_path", sha256_path);
  add_micro(micro_tagged_hash());
  const auto [id_uncached, id_memo] = micro_tx_id();
  add_micro(id_uncached);
  add_micro(id_memo);
  const auto [pow_full, pow_mid] = micro_pow();
  add_micro(pow_full);
  add_micro(pow_mid);
  const auto [ver_real, ver_hit] = micro_sig_verify();
  add_micro(ver_real);
  add_micro(ver_hit);
  add_micro(micro_mining());
  micro.print();
  std::cout << "SHA-256 compress chosen by CPUID: " << sha256_path << "\n\n";

  std::cout << "Macro: saturated 8-node bitcoin-like cluster, one seed, "
               "~25 tx/s offered for 240 s.\n";
  const ClusterRun off = run_cluster(/*caches_on=*/false);
  const ClusterRun on = run_cluster(/*caches_on=*/true);

  const bool identical = on.fingerprint == off.fingerprint;
  const double speedup = on.wall > 0 ? off.wall / on.wall : 0;

  Table macro({"config", "wall s", "included", "sigcache hit rate",
               "metrics vs baseline"});
  macro.row({"caches off", fmt(off.wall, 2), fmt_u(off.included), "-",
             "(baseline)"});
  macro.row({"caches on", fmt(on.wall, 2), fmt_u(on.included),
             fmt(100 * on.hit_rate, 1) + "%",
             identical ? "identical" : "DIVERGED"});
  macro.print();
  std::cout << "\nSpeedup (off/on): " << fmt(speedup, 2) << "x over "
            << on.sig_checks << " signature checks\n";
  if (!identical)
    std::cout << "ERROR: cached run diverged from baseline -- "
                 "the caches are supposed to be semantics-preserving!\n";

  JsonObject macro_json;
  macro_json.put("wall_seconds_caches_off", off.wall);
  macro_json.put("wall_seconds_caches_on", on.wall);
  macro_json.put("speedup", speedup);
  macro_json.put("sigcache_hit_rate", on.hit_rate);
  macro_json.put("sigcache_checks", on.sig_checks);
  macro_json.put("included_payments", on.included);
  macro_json.put("node_count", std::uint64_t{8});
  macro_json.put("metrics_identical", identical);

  report.put("bench", "hotpath");
  report.put_raw("micro", micro_json.to_string());
  report.put_raw("cluster", macro_json.to_string());
  report.put_raw("metrics", on.metrics_json);  // caches-on reference run
  report.put_raw("trace_summary", on.trace_summary_json);
  write_bench_report("hotpath", report);
  std::cout << "Wrote BENCH_hotpath.json\n";

  return identical ? 0 : 1;
}
