#include "tangle/tangle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::tangle {

const char* to_string(TipStrategy strategy) {
  switch (strategy) {
    case TipStrategy::kUniform:
      return "uniform";
    case TipStrategy::kMrts:
      return "mrts";
    case TipStrategy::kMcmc:
      break;
  }
  return "mcmc";
}

TxHash TangleTx::hash() const {
  Writer w;
  w.fixed(issuer);
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  w.fixed(spend_key);
  w.u64(static_cast<std::uint64_t>(timestamp * 1e6));
  w.u64(own_weight);
  return crypto::tagged_hash("dlt/tangle-tx",
                             ByteView{w.bytes().data(), w.size()});
}

Bytes TangleTx::serialize() const {
  Writer w;
  w.fixed(issuer);
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  w.fixed(spend_key);
  // The hash grid truncates to microseconds; storage keeps the exact bits
  // so replayed trace timestamps match the original run.
  w.u64(std::bit_cast<std::uint64_t>(timestamp));
  w.u64(own_weight);
  w.u64(work);
  w.u64(pubkey);
  w.u64(signature.r);
  w.u64(signature.s);
  return std::move(w).take();
}

Result<TangleTx> TangleTx::deserialize(ByteView raw) {
  Reader r(raw);
  TangleTx tx;
  auto issuer = r.fixed<32>();
  if (!issuer) return issuer.error();
  tx.issuer = *issuer;
  auto trunk = r.fixed<32>();
  if (!trunk) return trunk.error();
  tx.trunk = *trunk;
  auto branch = r.fixed<32>();
  if (!branch) return branch.error();
  tx.branch = *branch;
  auto payload = r.fixed<32>();
  if (!payload) return payload.error();
  tx.payload = *payload;
  auto spend_key = r.fixed<32>();
  if (!spend_key) return spend_key.error();
  tx.spend_key = *spend_key;
  auto ts = r.u64();
  if (!ts) return ts.error();
  tx.timestamp = std::bit_cast<double>(*ts);
  if (!fits_u64(tx.timestamp * 1e6))  // hash() truncates it to u64
    return make_error("site-record-bad-timestamp");
  auto weight = r.u64();
  if (!weight) return weight.error();
  tx.own_weight = *weight;
  auto work = r.u64();
  if (!work) return work.error();
  tx.work = *work;
  auto pubkey = r.u64();
  if (!pubkey) return pubkey.error();
  tx.pubkey = *pubkey;
  auto sr = r.u64();
  if (!sr) return sr.error();
  tx.signature.r = *sr;
  auto ss = r.u64();
  if (!ss) return ss.error();
  tx.signature.s = *ss;
  if (!r.done()) return make_error("site-record-trailing-bytes");
  return tx;
}

Bytes TangleTx::work_payload() const {
  // Work binds the approval choice (trunk/branch), like IOTA's PoW over
  // the transaction trits.
  Writer w;
  w.fixed(trunk);
  w.fixed(branch);
  w.fixed(payload);
  return std::move(w).take();
}

void TangleTx::solve_work(int difficulty_bits) {
  const Bytes payload_bytes = work_payload();
  auto solution = crypto::solve(
      ByteView{payload_bytes.data(), payload_bytes.size()}, difficulty_bits);
  work = solution->nonce;
}

bool TangleTx::verify_work(int difficulty_bits) const {
  const Bytes payload_bytes = work_payload();
  return crypto::verify(ByteView{payload_bytes.data(), payload_bytes.size()},
                        work, difficulty_bits);
}

void TangleTx::sign(const crypto::KeyPair& key, Rng& rng) {
  issuer = key.account_id();
  pubkey = key.public_key();
  signature = key.sign(hash().view(), rng);
}

bool TangleTx::verify_signature() const { return verify_signature(hash()); }

bool TangleTx::verify_signature(const TxHash& tx_hash) const {
  if (crypto::account_of(pubkey) != issuer) return false;
  return crypto::verify(pubkey, tx_hash.view(), signature);
}

Tangle::Tangle(TangleParams params) : params_(std::move(params)) {
  TangleTx genesis;
  genesis.payload = crypto::tagged_hash("dlt/tangle-genesis", {});
  genesis_hash_ = genesis.hash();
  txs_.push_back(genesis);
  dag_.emplace_back().hash = genesis_hash_;
  total_own_ = genesis.own_weight;
  scan_mark_.push_back(0);
  index_.emplace(genesis_hash_, 0);
  tips_.push_back(0);
}

const TangleTx* Tangle::find(const TxHash& hash) const {
  auto it = index_.find(hash);
  return it == index_.end() ? nullptr : &txs_[it->second];
}

template <typename Enter, typename Visit>
bool Tangle::walk_past_cone(std::initializer_list<Index> roots, Enter enter,
                            Visit visit) const {
  std::vector<bool> seen(dag_.size());
  std::vector<Index> stack;
  auto push = [&](Index i) {
    if (seen[i] || !enter(i)) return;
    seen[i] = true;
    stack.push_back(i);
  };
  for (Index root : roots) push(root);
  while (!stack.empty()) {
    const Index i = stack.back();
    stack.pop_back();
    if (visit(i)) return true;
    push(dag_[i].trunk);
    push(dag_[i].branch);
  }
  return false;
}

std::unordered_set<TxHash> Tangle::past_cone(const TxHash& hash) const {
  std::unordered_set<TxHash> cone;
  const auto it = index_.find(hash);
  if (it == index_.end()) return cone;
  walk_past_cone(
      {it->second}, [](Index) { return true; },
      [&](Index i) {
        cone.insert(dag_[i].hash);
        return false;
      });
  return cone;
}

// Spend-key walks enter keyed vertices only: an unkeyed vertex's whole
// past cone is key-free, so pruning it drops nothing.

std::unordered_set<Hash256> Tangle::cone_spend_keys(
    const TxHash& hash) const {
  std::unordered_set<Hash256> keys;
  const auto it = index_.find(hash);
  if (it == index_.end()) return keys;
  walk_past_cone(
      {it->second}, [&](Index i) { return dag_[i].keyed; },
      [&](Index i) {
        const Hash256& key = txs_[i].spend_key;
        if (!key.is_zero()) keys.insert(key);
        return false;
      });
  return keys;
}

bool Tangle::cone_holds_key(std::initializer_list<Index> roots,
                            std::span<const Hash256> keys) const {
  return walk_past_cone(
      roots, [&](Index i) { return dag_[i].keyed; },
      [&](Index i) {
        const Hash256& key = txs_[i].spend_key;
        return !key.is_zero() &&
               std::find(keys.begin(), keys.end(), key) != keys.end();
      });
}

bool Tangle::cone_conflicts(Index a, Index b) const {
  // Two cones conflict if some spend key appears on BOTH sides via
  // DIFFERENT transactions. Build a key->tx map of one side and probe it.
  if (!dag_[a].keyed || !dag_[b].keyed) return false;
  auto keyed = [&](Index i) { return dag_[i].keyed; };
  std::unordered_map<Hash256, Index> ka;
  walk_past_cone({a}, keyed, [&](Index i) {
    const Hash256& key = txs_[i].spend_key;
    if (!key.is_zero()) ka.emplace(key, i);
    return false;
  });
  return walk_past_cone({b}, keyed, [&](Index i) {
    const Hash256& key = txs_[i].spend_key;
    if (key.is_zero()) return false;
    const auto it = ka.find(key);
    return it != ka.end() && it->second != i;
  });
}

void Tangle::set_probe(obs::Probe probe) {
  probe_ = probe;
  obs_attached_ = probe_.counter("tangle.attached");
  obs_rejected_ = probe_.counter("tangle.rejected");
}

Status Tangle::attach(const TangleTx& tx) {
  const TxHash hash = tx.hash();
  Status st = attach_impl(tx, hash);
  if (st.ok()) {
    obs::inc(obs_attached_);
    if (probe_.tracer && probe_.tracer->enabled())
      probe_.tracer->record(tx.timestamp, obs::EventType::kTipAttached,
                            trace_node_, obs::trace_id(hash),
                            tx.branch == tx.trunk ? 1 : 2);
  } else {
    obs::inc(obs_rejected_);
  }
  return st;
}

Status Tangle::check_stateless(const TangleTx& tx, const TxHash& hash) const {
  if (!tx.verify_signature(hash)) return make_error("bad-signature");
  if (params_.verify_work && !tx.verify_work(params_.work_bits))
    return make_error("insufficient-work");
  // Weight policy: a declared weight of zero would make the transaction
  // invisible to the walk; one above the cap is the large-weight-spam
  // vector (an attacker buying cumulative weight per unit of hashcash).
  if (tx.own_weight == 0 || tx.own_weight > params_.max_own_weight)
    return make_error("bad-weight",
                      "own weight outside [1, max_own_weight]");
  return Status::success();
}

void Tangle::credit_outside(Index trunk, Index branch,
                            std::uint64_t own_weight) {
  // A vertex is outside the new past cone iff some tip other than trunk
  // and branch descends from it (every vertex outside has such a tip
  // above it). So outside marks start at those tips and flow to parents;
  // ancestor marks start at trunk and branch, flow to parents and
  // override outside. Parents have lower indices than their children, so
  // a vertex's mark is final when the descending scan reaches it, and the
  // scan ends once no outside mark lies below it. Genesis is in every past
  // cone, so the scan never passes index 0.
  constexpr std::uint8_t kOutside = 1;
  constexpr std::uint8_t kAncestor = 2;
  std::size_t pending = 0;  // outside marks the scan has not reached
  auto mark = [&](Index i, std::uint8_t m) {
    std::uint8_t& cur = scan_mark_[i];
    if (cur >= m) return;
    if (cur == 0)
      scan_touched_.push_back(i);
    else
      --pending;  // outside overridden by ancestor
    if (m == kOutside) ++pending;
    cur = m;
  };
  mark(trunk, kAncestor);
  mark(branch, kAncestor);
  for (Index tip : tips_) mark(tip, kOutside);
  for (auto i = static_cast<Index>(dag_.size() - 1); pending > 0; --i) {
    Vertex& v = dag_[i];
    if (scan_mark_[i] == kOutside) {
      --pending;
      v.outside += own_weight;
    }
    if (scan_mark_[i] != 0) {
      mark(v.trunk, scan_mark_[i]);
      mark(v.branch, scan_mark_[i]);
    }
  }
  for (Index i : scan_touched_) scan_mark_[i] = 0;
  scan_touched_.clear();
}

void Tangle::apply_attached(const TangleTx& tx, const TxHash& hash,
                            Index trunk, Index branch) {
  const bool trunk_was_tip = dag_[trunk].approvers.empty();
  const bool branch_was_tip =
      branch != trunk && dag_[branch].approvers.empty();
  const auto index = static_cast<Index>(dag_.size());
  // Every existing vertex is either in the new past cone, whose
  // cumulative weight grows by the own weight, or outside it, whose
  // `outside` grows by it; total_own_ grows for both.
  credit_outside(trunk, branch, tx.own_weight);
  dag_[trunk].approvers.push_back(index);
  if (branch != trunk) dag_[branch].approvers.push_back(index);
  Vertex& v = dag_.emplace_back();
  v.hash = hash;
  v.trunk = trunk;
  v.branch = branch;
  v.outside = total_own_;
  v.keyed = !tx.spend_key.is_zero() || dag_[trunk].keyed || dag_[branch].keyed;
  total_own_ += tx.own_weight;
  scan_mark_.push_back(0);
  txs_.push_back(tx);
  index_.emplace(hash, index);
  std::erase_if(tips_, [&](Index i) { return i == trunk || i == branch; });
  tips_.push_back(index);
  if (store_) {
    store_->log().append(storage::RecordType::kSite, hash, tx.serialize());
    if (trunk_was_tip) store_->state().erase(tx.trunk);
    if (branch_was_tip) store_->state().erase(tx.branch);
    store_->state().put(hash, {});
    store_->commit();
  }
}

Status Tangle::attach_impl(const TangleTx& tx, const TxHash& hash) {
  if (contains(hash)) return make_error("duplicate");
  if (Status st = check_stateless(tx, hash); !st.ok()) return st;

  const auto trunk = index_.find(tx.trunk);
  if (trunk == index_.end()) return make_error("unknown-trunk");
  const auto branch = index_.find(tx.branch);
  if (branch == index_.end()) return make_error("unknown-branch");
  // Consistency: the combined past cone must be conflict-free, and the
  // new transaction must not double-spend a key already in that cone
  // (its own re-attachment under the same key elsewhere is the conflict
  // the network later resolves by starvation).
  if (cone_conflicts(trunk->second, branch->second))
    return make_error("inconsistent-parents",
                      "trunk and branch cones double-spend");
  if (!tx.spend_key.is_zero() &&
      cone_holds_key({trunk->second, branch->second},
                     std::span(&tx.spend_key, 1)))
    return make_error("double-spend",
                      "spend key already present in the approved cone");
  apply_attached(tx, hash, trunk->second, branch->second);
  return Status::success();
}

std::vector<TxHash> Tangle::tips() const {
  std::vector<TxHash> out;
  out.reserve(tips_.size());
  for (Index tip : tips_) out.push_back(dag_[tip].hash);
  return out;
}

void Tangle::attach_store(std::shared_ptr<storage::LedgerStore> store) {
  store_ = std::move(store);
  if (!store_) return;
  if (!store_->log().contains(storage::RecordType::kSite, genesis_hash_)) {
    store_->log().append(storage::RecordType::kSite, genesis_hash_,
                         txs_.front().serialize());
    store_->state().put(genesis_hash_, {});
  }
  store_->commit();
}

std::size_t Tangle::replay_from_store() {
  if (!store_) return 0;
  std::vector<Bytes> records;
  store_->log().for_each(
      [&](storage::RecordType type, const Hash256& key, ByteView payload) {
        (void)key;
        if (type == storage::RecordType::kSite)
          records.emplace_back(payload.begin(), payload.end());
      });
  std::size_t accepted = 0;
  for (const Bytes& raw : records) {
    auto tx = TangleTx::deserialize(raw);
    if (!tx) continue;
    if (contains(tx->hash())) continue;  // genesis / already replayed
    if (attach(*tx).ok()) ++accepted;
  }
  return accepted;
}

std::uint64_t Tangle::prune_history() {
  if (!store_) return 0;
  bool erased = false;
  for (Index i = 1; i < dag_.size(); ++i) {
    if (dag_[i].approvers.empty()) continue;  // a tip
    erased |= store_->log().erase(storage::RecordType::kSite, dag_[i].hash);
  }
  if (!erased) return 0;
  const std::uint64_t reclaimed = store_->log().compact();
  store_->note_pruned(reclaimed);
  store_->commit();
  return reclaimed;
}

std::size_t Tangle::cumulative_weight(const TxHash& hash) const {
  const auto it = index_.find(hash);
  return it == index_.end() ? 0 : cumulative_weight_of(it->second);
}

double Tangle::confirmation_confidence(const TxHash& hash) const {
  const auto it = index_.find(hash);
  if (it == index_.end() || tips_.empty()) return 0.0;
  // A tip approves `hash` iff it lies in hash's future cone, and the tips
  // are exactly the vertices without approvers: count those reachable
  // along approver links.
  std::vector<bool> seen(dag_.size());
  std::vector<Index> stack{it->second};
  seen[it->second] = true;
  std::size_t approving = 0;
  while (!stack.empty()) {
    const Vertex& v = dag_[stack.back()];
    stack.pop_back();
    if (v.approvers.empty()) ++approving;
    for (Index a : v.approvers) {
      if (seen[a]) continue;
      seen[a] = true;
      stack.push_back(a);
    }
  }
  return static_cast<double>(approving) / static_cast<double>(tips_.size());
}

std::vector<TxHash> Tangle::confirmed_by_tips(double threshold) const {
  // One past-cone walk per tip counts, for every index, the tips that
  // approve it.
  std::vector<std::size_t> approve_count(dag_.size(), 0);
  for (Index tip : tips_)
    walk_past_cone(
        {tip}, [](Index) { return true; },
        [&](Index i) {
          ++approve_count[i];
          return false;
        });
  const double needed = threshold * static_cast<double>(tips_.size());
  std::vector<TxHash> crossed;
  for (Index i = 1; i < dag_.size(); ++i)
    if (static_cast<double>(approve_count[i]) >= needed)
      crossed.push_back(dag_[i].hash);
  std::sort(crossed.begin(), crossed.end());
  return crossed;
}

double Tangle::walk_confidence(const TxHash& hash, Rng& rng,
                               int samples) const {
  const auto it = index_.find(hash);
  if (it == index_.end() || samples <= 0) return 0.0;
  const Index target = it->second;
  int approving = 0;
  for (int i = 0; i < samples; ++i) {
    // Ancestors precede descendants, so only indices >= target lead to it.
    if (walk_past_cone(
            {index_.at(select_tip(rng))},
            [&](Index v) { return v >= target; },
            [&](Index v) { return v == target; }))
      ++approving;
  }
  return static_cast<double>(approving) / samples;
}

TxHash Tangle::select_tip(Rng& rng,
                          const std::vector<Hash256>& spend_keys) const {
  return select_tip_with(params_.tip_selection, rng, spend_keys);
}

TxHash Tangle::select_tip_with(TipStrategy strategy, Rng& rng,
                               const std::vector<Hash256>& spend_keys) const {
  if (strategy != TipStrategy::kMcmc) {
    // Direct tip draw. Candidates are the tips whose past cone does not
    // conflict with the issuer's pending spends, in canonical (sorted
    // hash) order.
    std::vector<TxHash> viable;
    viable.reserve(tips_.size());
    for (Index tip : tips_) {
      if (!spend_keys.empty() && cone_holds_key({tip}, spend_keys)) continue;
      viable.push_back(dag_[tip].hash);
    }
    // Every tip conflicted: genesis is always a clean attachment point
    // (no draw consumed; the caller's RNG stream stays aligned).
    if (viable.empty()) return genesis_hash_;
    std::sort(viable.begin(), viable.end());
    if (strategy == TipStrategy::kMrts) {
      double max_ts = 0.0;
      for (const TxHash& tip : viable)
        max_ts = std::max(max_ts, find(tip)->timestamp);
      std::vector<TxHash> recent;
      for (const TxHash& tip : viable)
        if (find(tip)->timestamp == max_ts) recent.push_back(tip);
      viable = std::move(recent);
    }
    // Exactly one uniform01() draw (uniform(bound) would reject-sample a
    // data-dependent number of raw words; the draw-count contract in
    // tip_selection_test.cpp pins one draw per selection).
    const auto pick = static_cast<std::size_t>(
        rng.uniform01() * static_cast<double>(viable.size()));
    return viable[std::min(pick, viable.size() - 1)];
  }

  // MCMC: biased random walk from genesis toward the tips, skipping
  // children whose cone conflicts with the issuer's intended spends. The
  // step buffers live across steps.
  std::vector<Index> viable;
  std::vector<double> weight;
  std::vector<double> p;
  Index current = 0;
  for (;;) {
    const std::vector<Index>& children = dag_[current].approvers;
    if (children.empty()) return dag_[current].hash;

    viable.clear();
    weight.clear();
    for (Index child : children) {
      if (!spend_keys.empty() && cone_holds_key({child}, spend_keys))
        continue;
      viable.push_back(child);
      weight.push_back(static_cast<double>(cumulative_weight_of(child)));
    }
    if (viable.empty()) return dag_[current].hash;

    // Transition probability ~ exp(alpha * weight), normalized against
    // the max for numerical stability.
    double max_w = 0;
    for (double w : weight) max_w = std::max(max_w, w);
    p.resize(viable.size());
    double total = 0;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      p[i] = std::exp(params_.alpha * (weight[i] - max_w));
      total += p[i];
    }
    double ticket = rng.uniform01() * total;
    std::size_t pick = viable.size() - 1;
    for (std::size_t i = 0; i < viable.size(); ++i) {
      ticket -= p[i];
      if (ticket <= 0) {
        pick = i;
        break;
      }
    }
    current = viable[pick];
  }
}

TangleTx make_tx(const Tangle& tangle, const crypto::KeyPair& issuer,
                 const TxHash& trunk, const TxHash& branch,
                 const Hash256& payload, double timestamp, Rng& rng,
                 const Hash256& spend_key, std::uint64_t own_weight) {
  TangleTx tx;
  tx.trunk = trunk;
  tx.branch = branch;
  tx.payload = payload;
  tx.spend_key = spend_key;
  tx.timestamp = timestamp;
  tx.own_weight = own_weight;
  tx.solve_work(tangle.params().work_bits);
  tx.sign(issuer, rng);
  return tx;
}

}  // namespace dlt::tangle
