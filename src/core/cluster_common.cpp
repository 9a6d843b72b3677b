#include "core/cluster_common.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>

#include "support/log.hpp"

namespace dlt::core {

ClusterCrypto make_cluster_crypto(const CryptoConfig& config) {
  ClusterCrypto out;
  if (config.shared_sigcache)
    out.sigcache =
        std::make_shared<crypto::SignatureCache>(config.sigcache_capacity);
  // A 1-thread pool runs parallel_for inline; only build one when the
  // pipeline asked for it, so prefetch-era configs keep their exact
  // pool-or-not behavior.
  if (config.verify_threads > 1 ||
      (config.parallel_validation && config.verify_threads == 1))
    out.verify_pool =
        std::make_shared<support::ThreadPool>(config.verify_threads);
  return out;
}

namespace {

/// "1"/"true"/"on"/"yes" → true, "0"/"false"/"off"/"no" → false,
/// anything else → nullopt (ignored, like an invalid DLT_VERIFY_THREADS).
std::optional<bool> parse_bool_env(const char* s) {
  if (!std::strcmp(s, "1") || !std::strcmp(s, "true") ||
      !std::strcmp(s, "on") || !std::strcmp(s, "yes"))
    return true;
  if (!std::strcmp(s, "0") || !std::strcmp(s, "false") ||
      !std::strcmp(s, "off") || !std::strcmp(s, "no"))
    return false;
  return std::nullopt;
}

}  // namespace

void apply_env_crypto(CryptoConfig& config) {
  bool overridden = false;

  const char* threads_env = std::getenv("DLT_VERIFY_THREADS");
  if (threads_env && *threads_env != '\0') {
    char* end = nullptr;
    const unsigned long v = std::strtoul(threads_env, &end, 10);
    if (end != threads_env && *end == '\0' && v > 0) {
      config.verify_threads = static_cast<std::size_t>(v);
      // A single worker runs the sharded pipeline inline; N=1 used to be
      // silently ignored here, leaving the prefetch-only path.
      config.parallel_validation = true;
      overridden = true;
    }
  }

  const char* pipeline_env = std::getenv("DLT_PARALLEL_VALIDATION");
  if (pipeline_env && *pipeline_env != '\0') {
    if (const std::optional<bool> on = parse_bool_env(pipeline_env)) {
      config.parallel_validation = *on;
      // The pipeline needs a pool to shard onto.
      if (*on && config.verify_threads == 0) config.verify_threads = 1;
      overridden = true;
    }
  }

  if (overridden) {
    DLT_LOG_INFO("crypto env override: verify_threads=%zu "
                 "parallel_validation=%s shared_sigcache=%s",
                 config.verify_threads,
                 config.parallel_validation ? "on" : "off",
                 config.shared_sigcache ? "on" : "off");
  }
}

void ClusterObs::capture_sim(const sim::Simulation& sim) {
  metrics.gauge("sim.events_fired")
      .set(static_cast<double>(sim.events_fired()));
  metrics.gauge("sim.events_scheduled")
      .set(static_cast<double>(sim.events_scheduled()));
  metrics.gauge("sim.events_cancelled")
      .set(static_cast<double>(sim.events_cancelled()));
  metrics.gauge("sim.pending").set(static_cast<double>(sim.pending()));
  metrics.gauge("sim.now").set(sim.now());
  // Scheduler memory behaviour (slab high-water marks) and the wall-clock
  // events/sec trajectory. events_per_sec and wall_seconds are wall-clock
  // measurements — bench_diff.py treats them as profile noise, never as a
  // determinism surface.
  metrics.gauge("sim.heap_peak").set(static_cast<double>(sim.heap_peak()));
  metrics.gauge("sim.slab_capacity")
      .set(static_cast<double>(sim.slab_capacity()));
  metrics.gauge("sim.wall_seconds").set(sim.wall_seconds());
  if (sim.wall_seconds() > 0.0)
    metrics.gauge("sim.events_per_sec")
        .set(static_cast<double>(sim.events_fired()) / sim.wall_seconds());
  lifecycle.capture();
}

std::vector<crypto::KeyPair> make_workload_accounts(std::size_t count) {
  std::vector<crypto::KeyPair> accounts;
  accounts.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    accounts.push_back(crypto::KeyPair::from_seed(0x9000 + i));
  return accounts;
}

void build_topology(net::Network& net, const std::vector<net::NodeId>& ids,
                    Topology topology, const net::LinkParams& link,
                    std::size_t random_degree, Rng& rng) {
  switch (topology) {
    case Topology::kComplete:
      net::build_complete(net, ids, link);
      break;
    case Topology::kRandom:
      net::build_random(net, ids, random_degree, rng, link);
      break;
    case Topology::kSmallWorld:
      net::build_small_world(net, ids, /*k=*/4, /*beta=*/0.1, rng, link);
      break;
  }
}

}  // namespace dlt::core
