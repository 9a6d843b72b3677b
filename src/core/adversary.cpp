#include "core/adversary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::core {

namespace {

// Interned once; released selfish blocks ride the nodes' own block topic.
const net::MsgType kMsgBlock = net::msg_type("block");

Hash256 adversary_spend_key(std::uint64_t key_seed) {
  Writer w;
  w.u64(key_seed);
  return crypto::tagged_hash("dlt/adv-spend",
                             ByteView{w.bytes().data(), w.size()});
}

Hash256 adversary_payload(std::uint64_t key_seed, std::uint64_t seq) {
  Writer w;
  w.u64(key_seed);
  w.u64(seq);
  return crypto::tagged_hash("dlt/adv-payload",
                             ByteView{w.bytes().data(), w.size()});
}

void set_gauge(obs::MetricsRegistry& registry, const std::string& name,
               double value) {
  registry.gauge(name).set(value);
}

}  // namespace

// ---------------------------------------------------------------------------
// TangleAdversary

TangleAdversary::TangleAdversary(TangleCluster& cluster,
                                 AdversaryConfig config)
    : cluster_(cluster),
      config_(config),
      key_(crypto::KeyPair::from_seed(config.key_seed)),
      rng_(config.key_seed),
      contested_key_(adversary_spend_key(config.key_seed)) {}

tangle::TangleTx TangleAdversary::build_tx(const tangle::TxHash& trunk,
                                           const tangle::TxHash& branch,
                                           const Hash256& spend_key) {
  const double now = cluster_.simulation().now();
  const Hash256 payload = adversary_payload(config_.key_seed, payload_seq_++);
  return tangle::make_tx(cluster_.node(config_.node).tangle(), key_, trunk,
                         branch, payload, now, rng_, spend_key,
                         config_.tx_weight);
}

void TangleAdversary::start() {
  if (!active()) return;
  sim::Simulation& sim = cluster_.simulation();
  switch (config_.kind) {
    case AdversaryKind::kParasite:
      sim.schedule_at(config_.start_time, [this] { issue_parasite_target(); });
      sim.schedule_at(config_.release_time, [this] { release_parasite(); });
      break;
    case AdversaryKind::kSpam:
      sim.schedule_at(config_.start_time, [this] { spam_burst(); });
      break;
    case AdversaryKind::kRace:
      sim.schedule_at(config_.start_time, [this] { open_race(); });
      sim.schedule_at(config_.release_time, [this] { heal_race(); });
      break;
    case AdversaryKind::kNone:
      break;
  }
}

void TangleAdversary::issue_parasite_target() {
  // The honest payment the attacker wants reverted: attached to the
  // current frontier like any legitimate transaction, carrying the
  // contested spend key.
  tangle::TangleNode& node = cluster_.node(config_.node);
  const std::vector<Hash256> avoid{contested_key_};
  const tangle::TxHash trunk = node.tangle().select_tip(rng_, avoid);
  const tangle::TxHash branch = node.tangle().select_tip(rng_, avoid);
  tangle::TangleTx target = build_tx(trunk, branch, contested_key_);
  honest_target_ = target.hash();
  if (node.inject(target).ok()) ++injected_;
}

void TangleAdversary::release_parasite() {
  // Withheld parasite chain, built and released at once: a conflicting
  // root anchored at genesis (stale, so the honest cone never contains
  // it), a spine accreting cumulative weight, and a fan of fresh leaves
  // competing for tip selection. power scales both against the honest
  // tangle size at release time.
  tangle::TangleNode& node = cluster_.node(config_.node);
  const double size_est =
      static_cast<double>(cluster_.node(0).tangle().size());
  const auto arm = static_cast<std::size_t>(
      std::max(1.0, std::round(config_.power * 0.5 * size_est)));

  tangle::TangleTx root = build_tx(node.tangle().genesis(),
                                   node.tangle().genesis(), contested_key_);
  parasite_root_ = root.hash();
  if (node.inject(root).ok()) ++injected_;

  tangle::TxHash spine = parasite_root_;
  for (std::size_t i = 1; i < arm; ++i) {
    tangle::TangleTx tx = build_tx(spine, spine, Hash256{});
    spine = tx.hash();
    if (node.inject(tx).ok()) ++injected_;
  }
  for (std::size_t i = 0; i < arm; ++i) {
    tangle::TangleTx leaf = build_tx(spine, spine, Hash256{});
    if (node.inject(leaf).ok()) ++injected_;
  }
}

void TangleAdversary::spam_burst() {
  // Lazy-tip spam: every transaction approves genesis instead of the
  // frontier, so it adds tips without ever approving honest ones.
  tangle::TangleNode& node = cluster_.node(config_.node);
  const auto burst = static_cast<std::size_t>(
      std::max(1.0, std::round(config_.power * config_.spam_burst_scale)));
  for (std::size_t i = 0; i < burst; ++i) {
    tangle::TangleTx tx = build_tx(node.tangle().genesis(),
                                   node.tangle().genesis(), Hash256{});
    if (node.inject(tx).ok()) ++injected_;
  }
  const double next = cluster_.simulation().now() + config_.interval;
  if (config_.stop_time > 0.0 && next >= config_.stop_time) return;
  cluster_.simulation().schedule_at(next, [this] { spam_burst(); });
}

void TangleAdversary::open_race() {
  // Minority side size scales with power (at least one node, never all).
  const std::size_t n = cluster_.node_count();
  const auto b_count = std::min(
      n - 1, std::max<std::size_t>(
                 1, static_cast<std::size_t>(
                        std::round(config_.power * static_cast<double>(n)))));
  race_side_b_node_ = n - b_count;
  std::vector<net::NodeId> side_a, side_b;
  for (std::size_t i = 0; i < race_side_b_node_; ++i)
    side_a.push_back(cluster_.node(i).id());
  for (std::size_t i = race_side_b_node_; i < n; ++i)
    side_b.push_back(cluster_.node(i).id());
  cluster_.network().set_partitions({side_a, side_b});

  // One conflicting spend per side, anchored at genesis so both attach
  // unconditionally on their own side.
  const tangle::TxHash genesis = cluster_.node(0).tangle().genesis();
  tangle::TangleTx tx_a = build_tx(genesis, genesis, contested_key_);
  race_a_ = tx_a.hash();
  if (cluster_.node(0).inject(tx_a).ok()) ++injected_;
  tangle::TangleTx tx_b = build_tx(genesis, genesis, contested_key_);
  race_b_ = tx_b.hash();
  if (cluster_.node(race_side_b_node_).inject(tx_b).ok()) ++injected_;
}

void TangleAdversary::heal_race() { cluster_.network().heal(); }

void TangleAdversary::measure() {
  obs::MetricsRegistry& reg = cluster_.metrics_registry();
  // Fixed-seed measurement stream: measuring never perturbs the run (it
  // happens after it) and is itself reproducible.
  Rng meas(config_.key_seed ^ 0x5EEDF00DULL);
  const tangle::Tangle& reference = cluster_.node(0).tangle();

  switch (config_.kind) {
    case AdversaryKind::kParasite: {
      flip_probability_ =
          active() ? reference.walk_confidence(parasite_root_, meas,
                                               config_.measure_samples)
                   : 0.0;
      set_gauge(reg, "attack.parasite.flip_probability", flip_probability_);
      break;
    }
    case AdversaryKind::kSpam: {
      // Approver share: the probability that a fresh tip selection (the
      // replica's configured strategy) lands on an honest-issued tip.
      // Walk-weighted rather than a raw tip-count ratio: under MCMC the
      // weight bias keeps selections off weight-1 spam tips, and raw
      // counts are not monotone (honest traffic that approves a spam tip
      // mints new honest-issued tips).
      auto clean = [&](const tangle::TxHash& tip) {
        const tangle::TangleTx* tx = reference.find(tip);
        if (!tx) return tip == reference.genesis();
        return tx->issuer != key_.account_id();
      };
      int hits = 0;
      for (int i = 0; i < config_.measure_samples; ++i)
        if (clean(reference.select_tip(meas))) ++hits;
      honest_tip_share_ =
          config_.measure_samples > 0
              ? static_cast<double>(hits) /
                    static_cast<double>(config_.measure_samples)
              : 1.0;
      set_gauge(reg, "attack.spam.honest_tip_share", honest_tip_share_);
      break;
    }
    case AdversaryKind::kRace: {
      // Each side judges its own spend on its own replica: the tangle has
      // no backfill, so partitioned-away history stays invisible and the
      // two views legitimately disagree (tests assert on that).
      side_a_confidence_ =
          active() ? cluster_.node(0).tangle().walk_confidence(
                         race_a_, meas, config_.measure_samples)
                   : 0.0;
      side_b_confidence_ =
          active() ? cluster_.node(race_side_b_node_)
                         .tangle()
                         .walk_confidence(race_b_, meas,
                                          config_.measure_samples)
                   : 0.0;
      set_gauge(reg, "attack.race.side_a_confidence", side_a_confidence_);
      set_gauge(reg, "attack.race.side_b_confidence", side_b_confidence_);
      break;
    }
    case AdversaryKind::kNone:
      break;
  }
  set_gauge(reg, "fairness.inclusion_gini",
            inclusion_gini(cluster_.lifecycle()));
}

// ---------------------------------------------------------------------------
// ChainSelfishMiner

ChainSelfishMiner::ChainSelfishMiner(ChainCluster& cluster,
                                     SelfishMinerConfig config)
    : cluster_(cluster),
      config_(config),
      key_(crypto::KeyPair::from_seed(config.key_seed)),
      rng_(config.key_seed) {
  if (config_.power > 0.0 && config_.power < 1.0) {
    hashrate_ = config_.power / (1.0 - config_.power) *
                cluster_.config().total_hashrate;
  }
}

void ChainSelfishMiner::start() {
  if (!active()) return;
  assert(cluster_.config().params.tx_model == chain::TxModel::kUtxo &&
         "selfish miner builds coinbase-only UTXO blocks");
  cluster_.simulation().schedule_at(config_.start_time, [this] {
    refork_to_public_tip();
    poll();
  });
}

void ChainSelfishMiner::refork_to_public_tip() {
  const chain::Blockchain& pub = cluster_.node(config_.node).chain();
  fork_point_ = pub.tip_hash();
  fork_height_ = pub.height();
  // Cached at the fork: next_difficulty() needs the parent in the public
  // index, which later private parents are not. Exact while no retarget
  // boundary is crossed (retarget_window 0, or runs shorter than it).
  fork_difficulty_ = pub.next_difficulty(fork_point_);
  last_timestamp_ = pub.find(fork_point_)->header.timestamp;
  withheld_.clear();
  schedule_mining();
}

void ChainSelfishMiner::schedule_mining() {
  if (mining_event_ != sim::kInvalidEvent)
    cluster_.simulation().cancel(mining_event_);
  const double mean_solve = fork_difficulty_ / hashrate_;
  const double delay = rng_.exponential(mean_solve);
  mining_event_ = cluster_.simulation().schedule_in(delay, [this] {
    mining_event_ = sim::kInvalidEvent;
    mine_private_block();
  });
}

void ChainSelfishMiner::mine_private_block() {
  const chain::ChainParams& params = cluster_.config().params;
  const chain::BlockHash parent =
      withheld_.empty() ? fork_point_ : withheld_.back().hash();
  const auto height =
      fork_height_ + static_cast<std::uint32_t>(withheld_.size()) + 1;

  chain::Block block;
  block.header.height = height;
  block.header.parent = parent;
  block.header.timestamp =
      std::max(cluster_.simulation().now(), last_timestamp_);
  block.header.difficulty = fork_difficulty_;
  block.header.proposer = key_.account_id();
  block.txs = chain::UtxoTxList{chain::UtxoTransaction::coinbase(
      key_.account_id(), params.block_reward, height)};
  block.header.merkle_root = block.compute_merkle_root();
  if (params.verify_pow) {
    for (std::uint64_t nonce = 0;; ++nonce) {
      block.header.nonce = nonce;
      if (chain::meets_target(block.header.pow_digest(),
                              block.header.difficulty))
        break;
    }
  } else {
    block.header.nonce = rng_.next();
  }

  last_timestamp_ = block.header.timestamp;
  withheld_.push_back(std::move(block));
  ++blocks_mined_;
  schedule_mining();
}

void ChainSelfishMiner::poll() {
  const chain::Blockchain& pub = cluster_.node(config_.node).chain();
  const std::uint32_t pub_height = pub.height();
  const auto priv_height =
      fork_height_ + static_cast<std::uint32_t>(withheld_.size());

  if (pub_height > fork_height_) {
    // The public chain advanced past our fork point: release if we are
    // strictly ahead (orphaning the honest blocks), otherwise the branch
    // lost — abandon it and refork.
    if (!withheld_.empty() && priv_height > pub_height) {
      release();
    } else {
      refork_to_public_tip();
    }
  }
  cluster_.simulation().schedule_in(config_.poll_interval,
                                    [this] { poll(); });
}

void ChainSelfishMiner::release() {
  const chain::ChainParams& params = cluster_.config().params;
  const net::NodeId origin = cluster_.node(config_.node).id();
  const std::vector<net::NodeId>& peers =
      cluster_.network().neighbors(origin);
  for (const chain::Block& block : withheld_) {
    const net::Message msg = net::make_message(
        kMsgBlock, block,
        block.serialized_size() + params.simulated_extra_block_bytes);
    // Gossip reaches every node except the origin; a bounce off the first
    // neighbor delivers the block to the origin's own replica too.
    cluster_.network().gossip(origin, msg);
    if (!peers.empty()) cluster_.network().send(peers.front(), origin, msg);
  }
  blocks_released_ += withheld_.size();

  // Keep mining privately on our released tip; the next poll re-anchors
  // against whatever the public chain does with the release.
  const chain::Block& tip = withheld_.back();
  fork_point_ = tip.hash();
  fork_height_ = tip.header.height;
  last_timestamp_ = tip.header.timestamp;
  withheld_.clear();
  schedule_mining();
}

void ChainSelfishMiner::measure() {
  const chain::Blockchain& ref = cluster_.node(0).chain();
  std::uint64_t mine = 0;
  for (std::uint32_t h = 1; h <= ref.height(); ++h) {
    const chain::Block* b = ref.at_height(h);
    if (b && b->header.proposer == key_.account_id()) ++mine;
  }
  revenue_share_ = ref.height() == 0
                       ? 0.0
                       : static_cast<double>(mine) /
                             static_cast<double>(ref.height());
  obs::MetricsRegistry& reg = cluster_.metrics_registry();
  set_gauge(reg, "attack.selfish.revenue_share", revenue_share_);
  set_gauge(reg, "attack.selfish.blocks_mined",
            static_cast<double>(blocks_mined_));
  set_gauge(reg, "attack.selfish.blocks_released",
            static_cast<double>(blocks_released_));
  set_gauge(reg, "fairness.inclusion_gini",
            inclusion_gini(cluster_.lifecycle()));
}

// ---------------------------------------------------------------------------
// Fairness / stationarity metrics

double inclusion_gini(const obs::LatencyTracker& tracker) {
  std::vector<std::pair<std::uint64_t, double>> rates;
  for (const auto& [issuer, stats] : tracker.issuer_stats()) {
    if (stats.submitted == 0) continue;
    rates.emplace_back(issuer, static_cast<double>(stats.included) /
                                   static_cast<double>(stats.submitted));
  }
  if (rates.empty()) return 0.0;
  std::sort(rates.begin(), rates.end());
  double sum = 0.0;
  for (const auto& [issuer, rate] : rates) sum += rate;
  const auto n = static_cast<double>(rates.size());
  const double mean = sum / n;
  if (mean <= 0.0) return 0.0;
  double abs_diff = 0.0;
  for (const auto& [ii, xi] : rates)
    for (const auto& [ij, xj] : rates) abs_diff += std::abs(xi - xj);
  return abs_diff / (2.0 * n * n * mean);
}

void TipStationarity::sample(std::size_t tip_count) {
  ring_.push_back(static_cast<double>(tip_count));
  if (ring_.size() > window_) ring_.pop_front();
  ++seen_;
}

double TipStationarity::mean() const {
  if (ring_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : ring_) sum += v;
  return sum / static_cast<double>(ring_.size());
}

double TipStationarity::variance() const {
  if (ring_.empty()) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : ring_) acc += (v - m) * (v - m);
  return acc / static_cast<double>(ring_.size());
}

void TipStationarity::publish(obs::Probe probe) const {
  obs::set(probe.gauge("tangle.tips.stationarity.mean"), mean());
  obs::set(probe.gauge("tangle.tips.stationarity.variance"), variance());
}

}  // namespace dlt::core
