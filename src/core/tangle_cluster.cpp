#include "core/tangle_cluster.hpp"

#include <unordered_set>
#include <vector>

#include "crypto/hash.hpp"
#include "support/serialize.hpp"

namespace dlt::core {

namespace {

using Engine = ClusterEngine<TangleTraits>;

/// Payload commitment for a workload payment: the tangle carries opaque
/// content, so the payment is committed, not interpreted.
Hash256 payment_payload(std::size_t from, std::size_t to,
                        std::uint64_t amount, std::uint64_t seq) {
  Writer w;
  w.u64(from);
  w.u64(to);
  w.u64(amount);
  w.u64(seq);
  return crypto::tagged_hash("dlt/tangle-payment",
                             ByteView{w.bytes().data(), w.size()});
}

/// One lifecycle sweep: stamp confirmation for every tracked transaction
/// the reference replica's tip tally (Tangle::confirmed_by_tips, the same
/// tally fill_metrics counts) has crossed. The tally comes back sorted by
/// hash, so the confirm-event stream is canonical.
void run_confirmation_sweep(Engine& e) {
  obs::LatencyTracker* tracker = e.lifecycle_tracker();
  if (!tracker || tracker->in_flight() == 0) return;

  const tangle::Tangle& tangle = e.node(0).tangle();
  const double now = e.simulation().now();
  for (const tangle::TxHash& hash :
       tangle.confirmed_by_tips(e.config().confirmation_threshold))
    tracker->on_confirm(obs::trace_id(hash), now, e.node(0).id());
}

void schedule_confirmation_sweep(Engine& e, double interval) {
  e.simulation().schedule_in(interval, [&e, interval] {
    run_confirmation_sweep(e);
    schedule_confirmation_sweep(e, interval);
  });
}

}  // namespace

TangleTraits::State TangleTraits::make_state(Config&) { return State{}; }

std::string TangleTraits::system_name(const Config&) { return "iota-like"; }

void TangleTraits::build_nodes(Engine& e) {
  const Config& config = e.config();
  for (std::size_t i = 0; i < config.node_count; ++i) {
    tangle::TangleNodeConfig nc;
    nc.probe = e.node_probe();
    nc.lifecycle = e.lifecycle_tracker();
    nc.lifecycle_observer = (i == 0);
    nc.store = e.make_node_store(i);
    e.add_node(std::make_unique<tangle::TangleNode>(
        e.network(), config.params, nc, e.rng().fork()));
  }
}

// The tangle has no per-node quorum event to hook; with lifecycle tracking
// on, confirmation (tip-cone confidence crossing the threshold, §IV) is
// re-evaluated by a recurring deterministic sweep on the reference replica.
void TangleTraits::after_topology(Engine& e) {
  const double interval = e.config().confirmation_sweep_interval;
  if (e.lifecycle_tracker() && interval > 0)
    schedule_confirmation_sweep(e, interval);
}

// Tangle nodes are purely reactive (no miners/voters to schedule); start()
// is a no-op kept for API symmetry with the other ledgers.
void TangleTraits::start(Engine&) {}

SubmitOutcome TangleTraits::submit_payment(Engine& e, std::size_t from,
                                           std::size_t to, Amount amount) {
  const Hash256 payload =
      payment_payload(from, to, amount, e.state().payment_seq++);
  tangle::TangleNode& issuer = e.node(from % e.node_count());
  auto res = issuer.issue(e.account(from), payload);
  if (!res) return SubmitOutcome{res.error()};
  SubmitOutcome out;
  out.tx_id = obs::trace_id(*res);
  out.node = issuer.id();
  // issue() attached locally before gossiping: admission is synchronous.
  // Inclusion means "attached on the reference replica", so it coincides
  // with submit only when node 0 itself is the issuer; otherwise node 0
  // stamps it on gossip receipt.
  out.admitted = true;
  out.included = (issuer.id() == e.node(0).id());
  return out;
}

// Like the lattice, issue() attaches synchronously, so open-loop arrivals
// go through the engine's per-issuer-node admission queues.
void TangleTraits::submit_traffic(Engine& e, const TrafficEvent& ev) {
  e.enqueue_traffic(ev);
}

void TangleTraits::fill_metrics(const Engine& e, RunMetrics& m) {
  const tangle::Tangle& tangle = e.node(0).tangle();

  // Included: every transaction in the reference replica except genesis.
  m.included = tangle.size() > 0 ? tangle.size() - 1 : 0;
  m.blocks_produced = m.included;

  // Confirmed: transactions at least confirmation_threshold of the tips
  // approve (confirmation_confidence, tallied over the whole tangle).
  m.confirmed =
      tangle.confirmed_by_tips(e.config().confirmation_threshold).size();

  // Backlog: tips are exactly the transactions nothing approves yet.
  m.pending_end = tangle.tip_count();
  m.stored_bytes = tangle.stored_bytes();
}

bool TangleTraits::converged(const Engine& e) {
  const tangle::Tangle& reference = e.node(0).tangle();
  const std::vector<tangle::TxHash> ref_tips = reference.tips();
  const std::unordered_set<tangle::TxHash> ref_tip_set(ref_tips.begin(),
                                                       ref_tips.end());
  for (std::size_t i = 0; i < e.node_count(); ++i) {
    const tangle::Tangle& t = e.node(i).tangle();
    if (t.size() != reference.size()) return false;
    const std::vector<tangle::TxHash> tips = t.tips();
    if (tips.size() != ref_tip_set.size()) return false;
    for (const tangle::TxHash& tip : tips)
      if (!ref_tip_set.count(tip)) return false;
    if (e.node(i).gap_pool_size() != 0) return false;
  }
  return true;
}

}  // namespace dlt::core
