#include "core/lattice_cluster.hpp"

#include <cassert>

namespace dlt::core {

namespace {

using Engine = ClusterEngine<LatticeTraits>;

lattice::LatticeNode& owner_of(Engine& e, std::size_t account_index) {
  return e.node(account_index % e.node_count());
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
    nc.probe = e.node_probe();
    nc.lifecycle = e.lifecycle_tracker();
    nc.store = e.make_node_store(i);
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

// Lattice confirmation (vote quorum) is detected by each node's vote
// tally, which calls the tracker directly: the first replica to observe
// quorum stamps the confirmation, so there is nothing extra to install.
void LatticeTraits::after_topology(Engine& e) {
  for (std::size_t i = 0; i < e.node_count(); ++i) e.node(i).start();
}

// Lattice nodes auto-start during construction (after_topology); an
// explicit start() is a no-op kept for API symmetry with the other ledgers.
void LatticeTraits::start(Engine&) {}

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

// The lattice has no mempool: send() applies synchronously, so open-loop
// arrivals go through the engine's per-owner-node admission queues.
void LatticeTraits::submit_traffic(Engine& e, const TrafficEvent& ev) {
  e.enqueue_traffic(ev);
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
