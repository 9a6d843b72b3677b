#include "core/lattice_cluster.hpp"

#include <cassert>

namespace dlt::core {

namespace {

using Engine = ClusterEngine<LatticeTraits>;

lattice::LatticeNode& owner_of(Engine& e, std::size_t account_index) {
  return e.node(account_index % e.node_count());
}

// ---- Open-loop admission pipeline (ISSUE 10) ----------------------------
// The lattice has no mempool: send() applies synchronously. Admission
// control therefore lives in a per-owner-node AdmissionQueue in front of
// the ledger, drained on a fixed service cadence (drain_interval /
// drain_burst) so offered load past the service rate queues, evicts, or
// backpressures instead of being absorbed instantly.

void ensure_queues(Engine& e) {
  LatticeTraits::State& st = e.state();
  if (!st.queues.empty()) return;
  st.queues.assign(e.node_count(),
                   AdmissionQueue(e.config().traffic.queue_capacity_bytes));
  st.drain_armed.assign(e.node_count(), 0);
}

void arm_drain(Engine& e, std::size_t owner);

void drain_queue(Engine& e, std::size_t owner) {
  LatticeTraits::State& st = e.state();
  st.drain_armed[owner] = 0;
  AdmissionQueue& q = st.queues[owner];
  AdmissionStats& adm = e.admission();
  obs::LatencyTracker* tracker = e.lifecycle_tracker();
  const std::size_t burst =
      std::max<std::size_t>(1, e.config().traffic.drain_burst);
  for (std::size_t i = 0; i < burst; ++i) {
    QueuedPayment p;
    if (!q.pop(p)) break;
    lattice::LatticeNode& node = e.node(owner);
    auto res = node.send(e.account(p.from), e.account(p.to).account_id(),
                         static_cast<lattice::Amount>(p.amount));
    if (!res) {
      // Drain-time validation failure (insufficient balance): the tx
      // leaves the admitted population as an explicit rejection.
      if (adm.admitted > 0) --adm.admitted;
      ++adm.rejected;
      e.rejected_counter().inc();
      continue;
    }
    if (tracker) {
      const double now = e.simulation().now();
      const std::uint64_t id = obs::trace_id(*res);
      // Submit is stamped at ENQUEUE time, so submit→confirm includes
      // the admission-queue wait — the open-loop latency of interest.
      tracker->on_submit(id, p.submit_time, node.id(),
                         static_cast<std::uint64_t>(p.from), p.fee_class);
      tracker->on_admit(id, now, node.id());
      tracker->on_include(id, now, node.id());
    }
  }
  if (!q.empty()) arm_drain(e, owner);
}

void arm_drain(Engine& e, std::size_t owner) {
  LatticeTraits::State& st = e.state();
  if (st.drain_armed[owner]) return;
  st.drain_armed[owner] = 1;
  e.simulation().schedule_in(e.config().traffic.drain_interval,
                             [&e, owner] { drain_queue(e, owner); });
}

}  // namespace

LatticeTraits::State LatticeTraits::make_state(Config& config) {
  if (config.supply == 0) {
    config.supply = config.initial_balance *
                    static_cast<lattice::Amount>(config.account_count) * 5 /
                    4;
  }
  return State{};
}

std::string LatticeTraits::system_name(const Config&) { return "nano-like"; }

void LatticeTraits::build_nodes(Engine& e) {
  const Config& config = e.config();
  const crypto::KeyPair& genesis_key = e.state().genesis_key;

  for (std::size_t i = 0; i < config.node_count; ++i) {
    lattice::LatticeNodeConfig nc;
    if (i < config.roles.size()) nc.role = config.roles[i];
    nc.solve_work = config.params.verify_work;
    nc.sigcache = e.sigcache_handle();
    nc.probe = e.node_probe(i);
    nc.lifecycle = e.lifecycle_tracker();
    // Every node gets a store (memory mode by default) so storage.* gauges
    // appear in every report and the memory/disk differential stays a pure
    // config flip (ISSUE 9).
    nc.store = std::make_shared<storage::LedgerStore>(
        config.storage, system_name(config) + "-s" +
                            std::to_string(config.seed) + "/node" +
                            std::to_string(i));
    nc.store->attach_probe(e.node_probe(i));
    e.add_node(std::make_unique<lattice::LatticeNode>(
        e.network(), config.params, genesis_key, config.supply, nc,
        e.rng().fork()));
  }

  // Voting identities. Node 0's is the genesis account itself, so the
  // genesis weight votes from the start; every other node gets a dedicated
  // representative account that accumulates weight via delegation.
  e.node(0).add_account(genesis_key);
  for (std::size_t i = 1; i < config.node_count; ++i)
    e.node(i).add_account(crypto::KeyPair::from_seed(0x7000 + i));

  // Workload accounts are controlled by their owner node.
  for (std::size_t i = 0; i < config.account_count; ++i)
    owner_of(e, i).add_account(e.account(i));
}

void LatticeTraits::after_topology(Engine& e) {
  for (std::size_t i = 0; i < e.node_count(); ++i) e.node(i).start();
}

// Lattice nodes auto-start during construction (after_topology); an
// explicit start() is a no-op kept for API symmetry with the other ledgers.
void LatticeTraits::start(Engine&) {}

// Lattice confirmation (vote quorum) is detected by each node's vote
// tally, which calls the tracker directly — the first replica to observe
// quorum stamps the confirmation; nothing extra to install.
void LatticeTraits::wire_lifecycle(Engine&) {}

SubmitOutcome LatticeTraits::submit_payment(Engine& e, std::size_t from,
                                            std::size_t to, Amount amount) {
  lattice::LatticeNode& owner = owner_of(e, from);
  auto res =
      owner.send(e.account(from), e.account(to).account_id(), amount);
  if (!res) return SubmitOutcome{res.error()};
  SubmitOutcome out;
  out.tx_id = obs::trace_id(*res);
  out.node = owner.id();
  // send() built, applied and gossiped the block before returning: the
  // lattice has no mempool, so admit and include coincide with submit.
  out.admitted = true;
  out.included = true;
  return out;
}

void LatticeTraits::submit_traffic(Engine& e, const TrafficEvent& ev) {
  const TrafficConfig& tc = e.config().traffic;
  ensure_queues(e);
  const std::size_t owner = ev.from % e.node_count();
  QueuedPayment p;
  p.submit_time = e.simulation().now();
  p.from = ev.from;
  p.to = ev.to;
  p.amount = ev.amount;
  p.fee_class = ev.fee_class;
  p.fee = tc.base_fee * fee_class_multiplier(ev.fee_class);
  p.bytes = tc.payment_bytes;
  std::vector<QueuedPayment> evicted;
  const auto res = e.state().queues[owner].push(p, &evicted);
  AdmissionStats& adm = e.admission();
  // Queue-evicted payments never reached the ledger, so there is no
  // lifecycle entry to retire — only the tallies move.
  for (std::size_t i = 0; i < evicted.size(); ++i) {
    if (adm.admitted > 0) --adm.admitted;
    ++adm.evicted;
  }
  if (res == AdmissionQueue::Push::kBackpressured) {
    ++adm.backpressured;
    return;
  }
  ++adm.admitted;
  arm_drain(e, owner);
}

void LatticeTraits::fill_metrics(const Engine& e, RunMetrics& m) {
  const lattice::Ledger& ledger = e.node(0).ledger();
  // Included payments = send blocks in the reference ledger.
  std::uint64_t sends = 0;
  for (std::size_t i = 0; i < e.config().account_count; ++i) {
    const lattice::AccountInfo* info =
        ledger.account(e.account(i).account_id());
    if (!info) continue;
    for (const lattice::LatticeBlock& b : info->chain)
      if (b.type == lattice::BlockType::kSend) ++sends;
  }
  // Plus sends from the genesis chain (funding).
  if (const lattice::AccountInfo* g =
          ledger.account(e.state().genesis_key.account_id())) {
    for (const lattice::LatticeBlock& b : g->chain)
      if (b.type == lattice::BlockType::kSend) ++sends;
  }
  m.included = sends;
  m.confirmed = e.node(0).confirmations().blocks_confirmed;
  m.pending_end = ledger.pending().size();  // unsettled sends (Fig. 3)

  m.confirmation_latency = e.node(0).confirmations().time_to_confirm;
  m.blocks_produced = ledger.block_count();
  m.stored_bytes = ledger.storage().total();
}

bool LatticeTraits::converged(const Engine& e) {
  for (std::size_t i = 0; i < e.config().account_count; ++i) {
    auto head0 = e.node(0).ledger().head_of(e.account(i).account_id());
    for (std::size_t n = 1; n < e.node_count(); ++n) {
      if (e.node(n).config().role == lattice::NodeRole::kLight) continue;
      if (e.node(n).ledger().head_of(e.account(i).account_id()) != head0)
        return false;
    }
  }
  return true;
}

void LatticeCluster::fund_accounts() {
  // Genesis account showers every workload account (send blocks); owner
  // nodes auto-receive (open blocks) as the sends arrive -- Fig. 3 flow.
  const crypto::KeyPair& genesis_key = state().genesis_key;
  for (std::size_t i = 0; i < config().account_count; ++i) {
    auto sent = node(0).send(genesis_key, account(i).account_id(),
                             config().initial_balance);
    assert(sent);
    (void)sent;
  }
  // Let sends propagate and receives settle.
  run_for(30.0);

  // Delegate each account's weight to a representative, spreading voting
  // weight across representative_count nodes (kChange blocks, §III-B).
  // Delegations go to nodes 1..R (never the genesis holder), so voting
  // weight is spread across representatives and quorum requires real
  // network rounds.
  const std::size_t reps = std::max<std::size_t>(
      1, std::min(config().representative_count, node_count() - 1));
  for (std::size_t i = 0; i < config().account_count; ++i) {
    lattice::LatticeNode& owner = owner_of(i);
    const std::size_t rep_node = 1 + (i % reps);
    const crypto::KeyPair* rep = node(rep_node).representative_key();
    assert(rep);
    (void)owner.change_representative(account(i), rep->account_id());
  }
  run_for(30.0);
}

}  // namespace dlt::core
