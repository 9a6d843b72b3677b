// Adversary actor layer (ISSUE 8 tentpole): attack strategies that run
// against live clusters, turning the paper's §IV honest-participant
// confirmation story into measured safety/fairness experiments.
//
// Actors and the metrics they publish into the cluster registry:
//
//   TangleAdversary (kParasite) — builds a withheld parasite chain that
//     double-spends an honest payment from a stale anchor, then releases
//     it; `attack.parasite.flip_probability` is the probability a fresh
//     tip-selection walk approves the parasite side (SoK: Diving into
//     DAG-based Blockchain Systems).
//   TangleAdversary (kSpam) — lazy-tip spam: bursts of transactions that
//     approve a stale anchor instead of recent tips, starving honest tips
//     of approvers; `attack.spam.honest_tip_share` is the honest fraction
//     of the reference replica's tips.
//   TangleAdversary (kRace) — double-spend race composed with the
//     existing partition injection (net::Network::set_partitions): two
//     conflicting spends issued on opposite sides of a partition, healed
//     later; `attack.race.side_{a,b}_confidence` are each side's
//     walk confidences on its own reference replica.
//   ChainSelfishMiner — private (selfish) mining on the chain side for
//     contrast: mines a withheld branch at `power / (1 - power)` of the
//     cluster hashrate and releases it to orphan honest blocks;
//     `attack.selfish.revenue_share` is the attacker's fraction of the
//     active chain.
//
// Every actor also publishes `fairness.inclusion_gini` — the Gini
// coefficient over per-issuer inclusion rates from the issuer-tagged
// obs::LatencyTracker stats (Fairness and Efficiency in DAG-based
// Cryptocurrencies).
//
// Determinism contract (see DESIGN.md "Adversary determinism contract"):
// adversary randomness comes from a private Rng seeded off
// AdversaryConfig::key_seed — never forked from the engine RNG — and all
// actions run as simulation events on the serial sim thread. A zero-power
// adversary schedules nothing and draws nothing, so its run is
// byte-identical to the honest baseline; any-power runs are byte-identical
// across repeated runs of one seed (tests/adversarial_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/chain_cluster.hpp"
#include "core/tangle_cluster.hpp"

namespace dlt::core {

// ---------------------------------------------------------------------------
// Tangle-side adversary.

enum class AdversaryKind { kNone, kParasite, kSpam, kRace };

struct AdversaryConfig {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Attacker power in [0, 1]: scales the parasite size relative to the
  /// honest tangle, the spam burst size, or the race's minority-side node
  /// share. Exactly 0 disables the adversary (honest baseline, no events,
  /// no draws).
  double power = 0.0;
  /// Cluster node whose replica and gossip endpoint the adversary uses.
  std::size_t node = 0;
  /// When the attack begins (parasite target issued / first spam burst /
  /// partition opens).
  double start_time = 4.0;
  /// Parasite release / race heal instant.
  double release_time = 10.0;
  /// Spam burst spacing (simulated seconds).
  double interval = 1.0;
  /// Spam: no bursts are scheduled at or after this time (0 = unbounded).
  double stop_time = 0.0;
  /// Spam txs per burst at power 1 (burst = max(1, power * scale)).
  double spam_burst_scale = 12.0;
  /// Own weight stamped on every adversary transaction (ISSUE 9): the
  /// large-weight-spam variant sets this above 1 to out-weigh honest
  /// unit-weight traffic in cumulative-weight tip selection. Values above
  /// the cluster's TangleParams::max_own_weight are rejected on attach.
  std::uint64_t tx_weight = 1;
  /// Adversary identity and private RNG stream seed.
  std::uint64_t key_seed = 0xAD5EED01;
  /// walk_confidence samples used by measure().
  int measure_samples = 256;
};

class TangleAdversary {
 public:
  TangleAdversary(TangleCluster& cluster, AdversaryConfig config);

  /// True when the adversary will act (kind set and power > 0).
  bool active() const {
    return config_.kind != AdversaryKind::kNone && config_.power > 0.0;
  }

  /// Schedules the attack into the cluster simulation. No-op when
  /// inactive: the honest run stays byte-identical.
  void start();

  /// Computes the attack metrics on the reference replica and publishes
  /// them as registry gauges (attack.*, fairness.inclusion_gini). Call
  /// after the run; draws only from a fixed-seed measurement RNG.
  void measure();

  // Measured values (valid after measure()).
  double flip_probability() const { return flip_probability_; }
  double honest_tip_share() const { return honest_tip_share_; }
  double side_a_confidence() const { return side_a_confidence_; }
  double side_b_confidence() const { return side_b_confidence_; }

  crypto::AccountId account() const { return key_.account_id(); }
  std::size_t txs_injected() const { return injected_; }
  const tangle::TxHash& parasite_root() const { return parasite_root_; }
  const tangle::TxHash& honest_target() const { return honest_target_; }

 private:
  tangle::TangleTx build_tx(const tangle::TxHash& trunk,
                            const tangle::TxHash& branch,
                            const Hash256& spend_key);
  void issue_parasite_target();
  void release_parasite();
  void spam_burst();
  void open_race();
  void heal_race();

  TangleCluster& cluster_;
  AdversaryConfig config_;
  crypto::KeyPair key_;
  Rng rng_;                 // private stream: Rng(key_seed), never forked
  Hash256 contested_key_;   // the double-spent key (parasite / race)
  tangle::TxHash honest_target_{};  // parasite: the honest spend A
  tangle::TxHash parasite_root_{};  // parasite: the withheld conflict B
  tangle::TxHash race_a_{}, race_b_{};
  std::size_t race_side_b_node_ = 0;
  std::uint64_t payload_seq_ = 0;
  std::size_t injected_ = 0;

  double flip_probability_ = 0.0;
  double honest_tip_share_ = 1.0;
  double side_a_confidence_ = 0.0;
  double side_b_confidence_ = 0.0;
};

// ---------------------------------------------------------------------------
// Chain-side adversaries.

struct SelfishMinerConfig {
  /// Attacker share of TOTAL network hashrate in [0, 1): the miner runs at
  /// power / (1 - power) times the cluster's honest hashrate. Exactly 0
  /// disables the miner (honest baseline).
  double power = 0.0;
  /// Cluster node used as the gossip origin for released blocks.
  std::size_t node = 0;
  double start_time = 0.0;
  /// How often the withhold/release state machine re-examines the public
  /// chain (simulated seconds).
  double poll_interval = 2.0;
  /// Adversary identity and private RNG stream seed.
  std::uint64_t key_seed = 0xAD5EED02;
};

/// Private (selfish) mining against a ChainCluster: mines a withheld
/// branch off the observed public tip, abandons it when the public chain
/// wins, and releases it wholesale once ahead of an advancing public
/// chain — orphaning the honest blocks in between. Requires
/// params.verify_pow == false (the cluster default: the mining race is
/// modelled statistically; see DESIGN.md).
class ChainSelfishMiner {
 public:
  ChainSelfishMiner(ChainCluster& cluster, SelfishMinerConfig config);

  bool active() const { return config_.power > 0.0; }

  /// Schedules mining + the release state machine. No-op when inactive.
  void start();

  /// Publishes attack.selfish.* gauges (and fairness.inclusion_gini) from
  /// the reference replica's active chain. Call after the run.
  void measure();

  double revenue_share() const { return revenue_share_; }
  std::uint64_t blocks_mined() const { return blocks_mined_; }
  std::uint64_t blocks_released() const { return blocks_released_; }
  crypto::AccountId account() const { return key_.account_id(); }

 private:
  void refork_to_public_tip();
  void schedule_mining();
  void mine_private_block();
  void poll();
  void release();

  ChainCluster& cluster_;
  SelfishMinerConfig config_;
  crypto::KeyPair key_;
  Rng rng_;  // private stream: Rng(key_seed), never forked
  double hashrate_ = 0.0;

  chain::BlockHash fork_point_{};
  std::uint32_t fork_height_ = 0;
  double fork_difficulty_ = 1.0;
  double last_timestamp_ = 0.0;
  std::vector<chain::Block> withheld_;
  sim::EventId mining_event_ = sim::kInvalidEvent;

  std::uint64_t blocks_mined_ = 0;
  std::uint64_t blocks_released_ = 0;
  double revenue_share_ = 0.0;
};

// ---------------------------------------------------------------------------
// Fairness / stationarity metrics.

/// Gini coefficient over per-issuer inclusion rates (included/submitted)
/// from the issuer-tagged LatencyTracker stats: 0 = perfectly fair, 1 =
/// maximally concentrated. Issuers are aggregated in sorted-id order so
/// the value is deterministic; issuers without submissions are excluded.
double inclusion_gini(const obs::LatencyTracker& tracker);

/// Sliding-window mean/variance of the tip count — the Feng–King–Duffy
/// one-endedness check: an honest tangle's tip process is stationary
/// (windowed mean converges, variance stays bounded), while lazy-tip spam
/// makes the tip count grow without bound.
class TipStationarity {
 public:
  explicit TipStationarity(std::size_t window = 32) : window_(window) {}

  void sample(std::size_t tip_count);
  std::size_t samples() const { return seen_; }
  /// Mean over the trailing window (0 when empty).
  double mean() const;
  /// Population variance over the trailing window (0 when empty).
  double variance() const;

  /// Publishes tangle.tips.stationarity.{mean,variance} gauges.
  void publish(obs::Probe probe) const;

 private:
  std::size_t window_;
  std::size_t seen_ = 0;
  std::deque<double> ring_;
};

}  // namespace dlt::core
