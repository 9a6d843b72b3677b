#include "core/chain_cluster.hpp"

#include <cassert>

namespace dlt::core {

namespace {

using Engine = ClusterEngine<ChainTraits>;

// Account `from`'s coin list, rebuilt with one for_each_owned walk if node
// 0's UTXO set changed since it was built or an eviction released one of
// its reservations.
ChainTraits::Wallet& current_wallet(Engine& e, std::size_t from) {
  ChainTraits::State& state = e.state();
  ChainTraits::Wallet& w = state.wallets[from];
  const chain::UtxoSet& utxo = e.node(0).chain().utxo_set();
  if (w.built && w.generation == utxo.generation()) return w;
  w.coins.clear();
  utxo.for_each_owned(
      e.account(from).account_id(),
      [&](const chain::Outpoint& op, const chain::TxOut& out) {
        if (!state.reserved.count(op)) w.coins.push_back({op, out.value});
        return true;
      });
  w.next = 0;
  w.generation = utxo.generation();
  w.built = true;
  return w;
}

SubmitOutcome submit_utxo_payment(Engine& e, std::size_t from,
                                  std::size_t to, chain::Amount amount,
                                  chain::Amount fee = 1000) {
  chain::ChainNode& node = e.node(0);
  ChainTraits::State& state = e.state();
  const crypto::KeyPair& key = e.account(from);

  // Coin selection against the reference node's chainstate: the first
  // coins in for_each_owned order that no in-flight transaction has
  // reserved, up to the first that brings the total to amount + fee. The
  // wallet list holds exactly those unreserved coins from its cursor on:
  // within one UtxoSet generation the index order is fixed and only this
  // wallet reserves the account's coins, taking them from the cursor.
  ChainTraits::Wallet& w = current_wallet(e, from);
  chain::Amount gathered = 0;
  std::size_t end = w.next;
  while (end < w.coins.size()) {
    gathered += w.coins[end++].value;
    if (gathered >= amount + fee) break;
  }
  if (gathered < amount + fee)
    return SubmitOutcome{
        make_error("insufficient-funds", "wallet cannot cover amount+fee")};

  chain::UtxoTransaction tx;
  for (std::size_t i = w.next; i < end; ++i)
    tx.inputs.push_back(chain::TxIn{w.coins[i].op, key.public_key(), {}});
  tx.outputs.push_back(
      chain::TxOut{amount, e.account(to).account_id()});
  if (gathered > amount + fee)
    tx.outputs.push_back(
        chain::TxOut{gathered - amount - fee, key.account_id()});
  tx.sign_all({key}, e.rng());

  // The evict handler may drop this list during the submit; a dropped list
  // is rebuilt on the next payment, so moving its cursor is harmless.
  Status st = node.submit_transaction(tx);
  if (st.ok()) {
    for (const chain::TxIn& in : tx.inputs) state.reserved.insert(in.prevout);
    w.next = end;
  }
  // Reserved outpoints are released lazily: once spent they vanish from
  // the UTXO set and list rebuilds skip them anyway. Compact with a
  // doubling threshold so the set stays proportional to the backlog.
  if (state.reserved.size() > state.reserved_compact_at) {
    for (auto it = state.reserved.begin(); it != state.reserved.end();) {
      it = node.chain().utxo_set().contains(*it) ? std::next(it)
                                                 : state.reserved.erase(it);
    }
    state.reserved_compact_at =
        std::max<std::size_t>(8192, state.reserved.size() * 2);
  }
  SubmitOutcome out{st};
  out.tx_id = obs::trace_id(tx.id());
  out.node = node.id();
  out.admitted = st.ok();  // pool add succeeded; inclusion comes later
  return out;
}

// `gas_price_override` > 0 pins the fee (traffic fee classes); 0 keeps
// the legacy random draw so pre-traffic RNG streams stay untouched.
SubmitOutcome submit_account_payment(Engine& e, std::size_t from,
                                     std::size_t to, chain::Amount amount,
                                     std::uint64_t gas_price_override = 0) {
  chain::ChainNode& node = e.node(0);
  ChainTraits::State& state = e.state();
  const crypto::KeyPair& key = e.account(from);

  chain::AccountTransaction tx;
  tx.to = e.account(to).account_id();
  tx.value = amount;
  tx.nonce = state.next_nonce[from];
  if (e.config().account_tx_data_mean > 0)
    tx.data_size = static_cast<std::uint32_t>(
        e.rng().uniform(2 * e.config().account_tx_data_mean + 1));
  tx.gas_limit = tx.intrinsic_gas();
  tx.gas_price = gas_price_override > 0
                     ? gas_price_override
                     : 1 + e.rng().uniform(10);  // a little fee-market variety
  tx.sign(key, e.rng());

  Status st = node.submit_transaction(tx);
  if (st.ok()) ++state.next_nonce[from];
  SubmitOutcome out{st};
  out.tx_id = obs::trace_id(tx.id());
  out.node = node.id();
  out.admitted = st.ok();
  return out;
}

// Fee-market eviction accounting shared by both evict handlers: retire
// the lifecycle entry (gating on it being live guards against double
// counts from reorg-reinject churn) and move the tx from admitted to
// evicted. Traffic runs own the workload — mixing schedule_workload with
// a capacity-capped pool would let closed-loop evictions skew these
// tallies (see DESIGN.md "Admission determinism contract").
void note_evicted(Engine& e, std::uint64_t id) {
  if (obs::LatencyTracker* t = e.lifecycle_tracker()) {
    if (!t->on_evict(id, e.simulation().now(), e.node(0).id()))
      return;  // not an engine-submitted tx (or already retired)
  }
  AdmissionStats& adm = e.admission();
  if (adm.admitted == 0) return;
  --adm.admitted;
  ++adm.evicted;
}

}  // namespace

ChainTraits::State ChainTraits::make_state(Config& config) {
  State state;
  state.wallets.resize(config.account_count);
  state.next_nonce.assign(config.account_count, 0);
  return state;
}

std::string ChainTraits::system_name(const Config& config) {
  return config.params.name;
}

void ChainTraits::build_nodes(Engine& e) {
  const Config& config = e.config();

  // Workload accounts funded in the genesis allocation (paper §II-A: the
  // initial state is hard-coded in the first block).
  chain::GenesisSpec genesis;
  for (std::size_t i = 0; i < config.account_count; ++i) {
    const std::size_t coins =
        std::max<std::size_t>(1, config.genesis_outputs_per_account);
    for (std::size_t j = 0; j < coins; ++j)
      genesis.allocations.emplace_back(e.account(i).account_id(),
                                       config.initial_balance);
  }

  // PoS stake table shared by every node.
  std::vector<chain::StakeAllocation> stakes;
  if (config.params.consensus == chain::ConsensusKind::kProofOfStake) {
    for (std::size_t i = 0; i < config.validator_count; ++i) {
      const crypto::KeyPair key = crypto::KeyPair::from_seed(0x4000 + i);
      stakes.push_back(chain::StakeAllocation{
          key.account_id(), key.public_key(), config.stake_per_validator});
    }
  }

  for (std::size_t i = 0; i < config.node_count; ++i) {
    chain::NodeConfig nc;
    nc.wallet_seed = 0x4000 + i;  // validators sign with their stake key
    if (config.params.consensus == chain::ConsensusKind::kProofOfWork &&
        i < config.miner_count) {
      nc.hashrate =
          config.total_hashrate / static_cast<double>(config.miner_count);
      nc.solve_pow = config.params.verify_pow;
    }
    nc.sigcache = e.sigcache_handle();
    nc.probe = e.node_probe();
    nc.lifecycle = e.lifecycle_tracker();
    if (config.traffic.enabled)
      nc.mempool_capacity_bytes = config.traffic.queue_capacity_bytes;
    nc.store = e.make_node_store(i);
    e.add_node(std::make_unique<chain::ChainNode>(
        e.network(), config.params, genesis, nc, e.rng().fork(), stakes));
  }
}

// Chain confirmation (depth-k) is detected by ChainNode's block-connect
// hook, which calls the tracker directly; after topology only the traffic
// engine's evict handlers need installing.
void ChainTraits::after_topology(Engine& e) {
  if (!e.config().traffic.enabled) return;
  // Node 0 takes every engine submission, so only its evict handlers
  // feed the admission tallies; replica pools evict silently.
  State& st = e.state();
  st.account_index.reserve(e.account_count());
  for (std::size_t i = 0; i < e.account_count(); ++i)
    st.account_index.emplace(e.account(i).account_id(), i);

  e.node(0).utxo_pool().set_evict_handler(
      [&e](const chain::UtxoTransaction& tx) {
        // Release the wallet's coin reservations so the sender can
        // rebuild the payment from the same outpoints. A released coin
        // sits before its owner's list cursor, so drop that list.
        ChainTraits::State& s = e.state();
        for (const chain::TxIn& in : tx.inputs) {
          if (s.reserved.erase(in.prevout) == 0) continue;
          auto idx = s.account_index.find(crypto::account_of(in.pubkey));
          if (idx != s.account_index.end())
            s.wallets[idx->second].built = false;
        }
        note_evicted(e, obs::trace_id(tx.id()));
      });
  e.node(0).account_pool().set_evict_handler(
      [&e](const chain::AccountTransaction& tx) {
        // Wallet nonce rollback: a capacity eviction frees the nonce slot
        // (tail eviction — nothing above it is pooled), so the sender
        // re-uses it and its queue stays gap-free. A replacement leaves
        // the slot occupied; keep the wallet counter where it is.
        ChainTraits::State& s = e.state();
        auto idx = s.account_index.find(tx.from);
        if (idx != s.account_index.end() &&
            !e.node(0).account_pool().contains_nonce(tx.from, tx.nonce) &&
            tx.nonce < s.next_nonce[idx->second])
          s.next_nonce[idx->second] = tx.nonce;
        note_evicted(e, obs::trace_id(tx.id()));
      });
}

void ChainTraits::start(Engine& e) {
  for (std::size_t i = 0; i < e.node_count(); ++i) e.node(i).start();
}

SubmitOutcome ChainTraits::submit_payment(Engine& e, std::size_t from,
                                          std::size_t to, Amount amount) {
  return e.config().params.tx_model == chain::TxModel::kUtxo
             ? submit_utxo_payment(e, from, to, amount)
             : submit_account_payment(e, from, to, amount);
}

void ChainTraits::submit_traffic(Engine& e, const TrafficEvent& ev) {
  const TrafficConfig& tc = e.config().traffic;
  const std::uint64_t mult = fee_class_multiplier(ev.fee_class);
  const SubmitOutcome out =
      e.config().params.tx_model == chain::TxModel::kUtxo
          ? submit_utxo_payment(
                e, ev.from, ev.to, static_cast<chain::Amount>(ev.amount),
                static_cast<chain::Amount>(tc.base_fee * mult))
          : submit_account_payment(e, ev.from, ev.to,
                                   static_cast<chain::Amount>(ev.amount),
                                   mult);
  AdmissionStats& adm = e.admission();
  if (out.status.ok()) {
    ++adm.admitted;
    e.record_submission(out, e.simulation().now(), ev.from, ev.fee_class);
  } else if (out.status.error().code == "mempool-full") {
    ++adm.backpressured;
  } else {
    ++adm.rejected;
    e.rejected_counter().inc();
  }
}

void ChainTraits::fill_metrics(const Engine& e, RunMetrics& m) {
  const chain::Blockchain& chain = e.node(0).chain();
  // Included: payments on the active chain (excludes coinbases).
  std::uint64_t included = 0, confirmed = 0;
  for (std::uint32_t h = 1; h <= chain.height(); ++h) {
    const chain::Block* b = chain.at_height(h);
    const std::uint64_t txs =
        b->is_utxo() ? b->tx_count() - 1 : b->tx_count();
    included += txs;
    if (chain.height() - h + 1 >= chain.params().confirmation_depth)
      confirmed += txs;
  }
  m.included = included;
  m.confirmed = confirmed;
  m.pending_end = e.node(0).mempool_size();

  for (std::size_t i = 0; i < e.node_count(); ++i)
    m.blocks_produced += e.node(i).blocks_mined();
  // Latencies live on node 0 (the submission node).
  m.inclusion_latency = e.node(0).timings().inclusion_latency;
  m.confirmation_latency = e.node(0).timings().confirmation_latency;

  const chain::ForkStats& f = chain.fork_stats();
  m.reorgs = f.reorgs;
  m.orphaned_blocks = f.side_chain_blocks + f.blocks_disconnected;
  m.max_reorg_depth = f.max_reorg_depth;
  m.stored_bytes = chain.storage().total();
}

bool ChainTraits::converged(const Engine& e) {
  const chain::BlockHash tip = e.node(0).chain().tip_hash();
  for (std::size_t i = 0; i < e.node_count(); ++i)
    if (!(e.node(i).chain().tip_hash() == tip)) return false;
  return true;
}

}  // namespace dlt::core
