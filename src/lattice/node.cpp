#include "lattice/node.hpp"

#include <algorithm>
#include <cassert>

#include "obs/latency.hpp"
#include "obs/profile.hpp"
#include "support/log.hpp"

namespace dlt::lattice {
namespace {

// Interned once at static init; per-message paths compare/copy uint32 ids.
const net::MsgType kMsgBlock = net::msg_type("lat-block");
const net::MsgType kMsgVote = net::msg_type("lat-vote");
const net::MsgType kMsgGetBlock = net::msg_type("lat-get-block");
constexpr std::size_t kGetBlockBytes = 40;
const net::MsgType kMsgFrontier = net::msg_type("lat-frontier");

using FrontierList = std::vector<std::pair<crypto::AccountId, BlockHash>>;

Root root_of(const LatticeBlock& block) {
  return Root{block.account, block.previous};
}

}  // namespace

LatticeNode::LatticeNode(net::Network& network, const LatticeParams& params,
                         const crypto::KeyPair& genesis_key, Amount supply,
                         const LatticeNodeConfig& config, Rng rng)
    : net_(network),
      id_(network.add_node()),
      config_(config),
      ledger_(params, genesis_key.account_id(), genesis_key.account_id(),
              supply),
      rng_(std::move(rng)) {
  ledger_.set_sigcache(config_.sigcache);
  if (config_.store) ledger_.attach_store(config_.store);
  if (config_.probe) {
    obs_blocks_received_ = config_.probe.counter("lattice.blocks_received");
    obs_sends_ = config_.probe.counter("lattice.sends_issued");
    obs_receives_ = config_.probe.counter("lattice.receives_settled");
    obs_votes_cast_ = config_.probe.counter("lattice.votes_cast");
    obs_confirmed_ = config_.probe.counter("lattice.blocks_confirmed");
    obs_elections_ = config_.probe.counter("lattice.elections_started");
    if (config_.solve_work)
      profile_work_ = config_.probe.histogram("profile.lattice_work_us");
  }
  net_.set_handler(id_, [this](const net::Message& m) { handle_message(m); });
}

void LatticeNode::add_account(const crypto::KeyPair& key) {
  account_index_[key.account_id()] = accounts_.size();
  accounts_.push_back(key);
}

const crypto::KeyPair* LatticeNode::representative_key() const {
  return accounts_.empty() ? nullptr : &accounts_.front();
}

void LatticeNode::start() {
  if (config_.role == NodeRole::kCurrent && config_.prune_interval > 0)
    schedule_prune();
  if (config_.role != NodeRole::kLight && config_.frontier_interval > 0)
    schedule_frontier_sync();
}

void LatticeNode::schedule_frontier_sync() {
  net_.simulation().schedule_in(config_.frontier_interval, [this] {
    const auto& peers = net_.neighbors(id_);
    if (!peers.empty())
      send_frontiers(peers[rng_.uniform(peers.size())]);
    schedule_frontier_sync();
  });
}

void LatticeNode::send_frontiers(net::NodeId peer) {
  FrontierList frontiers;
  // Offering every head is fine at simulation scale; a real node pages.
  ledger_.for_each_head(
      [&frontiers](const crypto::AccountId& account, const BlockHash& head) {
        frontiers.emplace_back(account, head);
      });
  net_.send(id_, peer,
            net::make_message(kMsgFrontier, frontiers,
                              frontiers.size() * 64 + 8));
}

void LatticeNode::handle_frontiers(net::NodeId peer,
                                   const FrontierList& frontiers) {
  if (config_.role == NodeRole::kLight) return;
  for (const auto& [account, their_head] : frontiers) {
    const AccountInfo* mine = ledger_.account(account);
    if (ledger_.contains(their_head)) {
      // We know their head. If we are ahead on this chain, push them the
      // successors (bulk pull, bounded per round).
      if (!mine) continue;
      auto loc_height = [&]() -> std::optional<std::uint32_t> {
        auto blk = ledger_.find_block(their_head);
        if (!blk) return std::nullopt;
        // Height lookup: walk from their head forward via block_at.
        for (std::uint32_t h = mine->pruned_below; h < mine->height(); ++h)
          if (mine->block_at(h) && mine->block_at(h)->hash() == their_head)
            return h;
        return std::nullopt;
      }();
      if (!loc_height) continue;
      const std::uint32_t limit =
          std::min(mine->height(), *loc_height + 1 + 32);
      for (std::uint32_t h = *loc_height + 1; h < limit; ++h) {
        const LatticeBlock* b = mine->block_at(h);
        if (!b) break;  // pruned: cannot serve (§V-B)
        net_.send(id_, peer,
                  net::make_message(kMsgBlock, *b, b->serialized_size()));
      }
    } else {
      // Their head is news to us: pull it (gap backfill walks the rest).
      request_block(peer, their_head);
    }
  }
}

void LatticeNode::schedule_prune() {
  net_.simulation().schedule_in(config_.prune_interval, [this] {
    ledger_.prune_history();
    schedule_prune();
  });
}

void LatticeNode::handle_message(const net::Message& msg) {
  if (msg.type == kMsgBlock)
    handle_block(net::payload_as<LatticeBlock>(msg), msg.from);
  else if (msg.type == kMsgVote)
    handle_vote(net::payload_as<Vote>(msg));
  else if (msg.type == kMsgGetBlock)
    serve_block(msg.from, net::payload_as<BlockHash>(msg));
  else if (msg.type == kMsgFrontier)
    handle_frontiers(msg.from, net::payload_as<FrontierList>(msg));
}

void LatticeNode::request_block(net::NodeId peer, const BlockHash& hash) {
  if (peer == net::kNoNode) return;
  net_.send(id_, peer,
            net::make_message(kMsgGetBlock, hash, kGetBlockBytes));
}

void LatticeNode::serve_block(net::NodeId peer, const BlockHash& hash) {
  if (config_.role == NodeRole::kLight) return;
  auto block = ledger_.find_block(hash);
  if (!block) return;  // unknown or pruned (§V-B trade-off)
  net_.send(id_, peer,
            net::make_message(kMsgBlock, *block, block->serialized_size()));
}

void LatticeNode::handle_block(const LatticeBlock& block, net::NodeId from) {
  obs::inc(obs_blocks_received_);
  config_.probe.trace(net_.simulation().now(), obs::EventType::kBlockReceived,
                      id_, static_cast<std::uint64_t>(block.type),
                      obs::trace_id(block.hash()));
  if (config_.role == NodeRole::kLight) {
    // Light nodes hold no ledger (paper §V-B); they only watch for sends
    // addressed to their own accounts so they can receive them.
    if (block.type == BlockType::kSend &&
        account_index_.count(crypto::AccountId(block.link)))
      maybe_auto_receive(block);
    return;
  }
  process_block(block, from);
}

void LatticeNode::process_block(const LatticeBlock& block,
                                net::NodeId from) {
  const BlockHash hash = block.hash();
  if (ledger_.contains(hash)) return;
  if (!first_seen_.count(hash)) first_seen_[hash] = net_.simulation().now();

  Status st = ledger_.process(block);
  if (st.ok()) {
    after_applied(block);
    return;
  }
  const std::string& code = st.error().code;
  if (code == "fork") {
    start_or_join_election(block);
  } else if (code == "gap-previous") {
    gap_previous_[block.previous].push_back(block);
    request_block(from, block.previous);  // backfill the missing ancestor
  } else if (code == "gap-source") {
    gap_source_[block.link].push_back(block);
    request_block(from, block.link);
  } else if (code != "duplicate") {
    DLT_LOG_DEBUG("lattice node %u dropped block (%s)", id_,
                  st.error().to_string().c_str());
  }
}

void LatticeNode::after_applied(const LatticeBlock& block) {
  const BlockHash hash = block.hash();
  candidates_.try_emplace(hash, block);

  // Representatives vote automatically on blocks they have not seen
  // before (paper §IV-B).
  vote_on(block);

  // Votes that raced ahead of the block.
  auto buffered = vote_buffer_.find(hash);
  if (buffered != vote_buffer_.end()) {
    std::vector<Vote> votes = std::move(buffered->second);
    vote_buffer_.erase(buffered);
    for (const Vote& v : votes) handle_vote(v);
  }

  if (block.type == BlockType::kSend) maybe_auto_receive(block);
  retry_gaps(hash);
}

void LatticeNode::retry_gaps(const BlockHash& now_available) {
  auto run = [this](std::unordered_map<BlockHash,
                                       std::vector<LatticeBlock>>& pool,
                    const BlockHash& key) {
    auto it = pool.find(key);
    if (it == pool.end()) return;
    std::vector<LatticeBlock> blocked = std::move(it->second);
    pool.erase(it);
    for (const LatticeBlock& b : blocked) process_block(b);
  };
  run(gap_previous_, now_available);
  run(gap_source_, now_available);
}

void LatticeNode::vote_on(const LatticeBlock& block) {
  const crypto::KeyPair* rep = representative_key();
  if (!rep) return;
  const Amount weight = ledger_.weight_of(rep->account_id());
  if (weight == 0) return;

  Vote vote;
  vote.root = root_of(block);
  vote.block = block.hash();
  vote.sequence = vote_sequence_++;
  vote.sign(*rep, rng_);

  obs::inc(obs_votes_cast_);
  config_.probe.trace(net_.simulation().now(), obs::EventType::kVoteCast, id_,
                      vote.sequence, obs::trace_id(vote.block));

  handle_vote(vote);  // tally our own vote immediately
  net_.gossip(id_, net::make_message(kMsgVote, vote, Vote::kSerializedSize));
}

void LatticeNode::handle_vote(const Vote& vote) {
  if (config_.role == NodeRole::kLight) return;
  if (!vote.verify(config_.sigcache.get())) return;
  const Amount weight = ledger_.weight_of(vote.representative);
  if (weight == 0) return;

  const bool known_block =
      ledger_.contains(vote.block) || candidates_.count(vote.block);
  if (!known_block) {
    vote_buffer_[vote.block].push_back(vote);
    return;
  }

  tally_confirmation(vote.block, vote);

  auto election = elections_.find(vote.root);
  if (election != elections_.end()) {
    election->second.add_vote(vote.representative, weight, vote.block,
                              vote.sequence);
    // Early resolution on quorum (paper §IV-B: majority of votes).
    auto leader = election->second.leader();
    const double quorum = ledger_.params().vote_quorum *
                          static_cast<double>(ledger_.total_weight());
    if (leader && static_cast<double>(leader->second) >= quorum)
      finish_election(vote.root);
  }
}

void LatticeNode::tally_confirmation(const BlockHash& hash,
                                     const Vote& vote) {
  if (confirmed_.count(hash)) return;
  auto& by_rep = confirmation_votes_[hash];
  by_rep[vote.representative] = ledger_.weight_of(vote.representative);

  Amount total = 0;
  for (const auto& [rep, w] : by_rep) total += w;
  const double quorum = ledger_.params().vote_quorum *
                        static_cast<double>(ledger_.total_weight());
  if (static_cast<double>(total) < quorum) return;

  confirmed_.insert(hash);
  ++conf_stats_.blocks_confirmed;
  obs::inc(obs_confirmed_);
  config_.probe.trace(net_.simulation().now(), obs::EventType::kQuorumReached,
                      id_, static_cast<std::uint64_t>(total),
                      obs::trace_id(hash));
  auto seen = first_seen_.find(hash);
  if (seen != first_seen_.end())
    conf_stats_.time_to_confirm.add(net_.simulation().now() - seen->second);
  // Lifecycle: the first replica in the cluster to reach quorum for a
  // tracked block stamps its confirmation (the tracker ignores repeats).
  if (config_.lifecycle)
    config_.lifecycle->on_confirm(obs::trace_id(hash),
                                  net_.simulation().now(), id_);

  // Cement: the confirmed block becomes irreversible (paper §IV-B).
  if (ledger_.contains(hash)) {
    if (ledger_.cement(hash).ok()) ++conf_stats_.blocks_cemented;
  } else {
    // Confirmed block lost locally to a fork candidate: adopt it.
    auto cand = candidates_.find(hash);
    if (cand != candidates_.end()) {
      auto existing = ledger_.block_at_root(root_of(cand->second));
      if (existing) {
        auto removed = ledger_.rollback(existing->hash());
        if (removed)
          conf_stats_.elections_lost_rollbacks += removed->size();
      }
      if (ledger_.process(cand->second).ok()) {
        if (ledger_.cement(hash).ok()) ++conf_stats_.blocks_cemented;
        retry_gaps(hash);
      }
    }
  }
  confirmation_votes_.erase(hash);
}

void LatticeNode::start_or_join_election(const LatticeBlock& incoming) {
  const Root root = root_of(incoming);
  const bool known_candidate = candidates_.count(incoming.hash()) != 0;
  candidates_.try_emplace(incoming.hash(), incoming);

  auto existing = ledger_.block_at_root(root);
  if (existing) candidates_.try_emplace(existing->hash(), *existing);

  // A candidate we have already adjudicated must not reopen the election
  // (re-gossiped conflict blocks would otherwise ping-pong elections
  // between nodes forever).
  if (known_candidate && !elections_.count(root)) return;

  if (!elections_.count(root)) {
    elections_.emplace(root, Election(root, net_.simulation().now()));
    ++conf_stats_.elections_started;
    obs::inc(obs_elections_);
    // First-seen rule: a representative endorses the block it already
    // applied, not the newcomer.
    if (existing) vote_on(*existing);
    // Re-advertise both candidates: peers that saw only one side of the
    // conflict (e.g. across a healed partition) must learn of the other
    // before they can vote (Nano floods conflicting blocks similarly).
    net_.gossip(id_, net::make_message(kMsgBlock, incoming,
                                       incoming.serialized_size()));
    if (existing)
      net_.gossip(id_, net::make_message(kMsgBlock, *existing,
                                         existing->serialized_size()));
    schedule_revote(root);
    net_.simulation().schedule_in(ledger_.params().election_duration,
                                  [this, root] { finish_election(root); });
  }
}

void LatticeNode::schedule_revote(const Root& root) {
  // While an election is open, representatives periodically re-broadcast
  // their vote (Nano's vote rebroadcasting): late or reconnected peers
  // need the tally even if the original flood missed them.
  const double period =
      std::max(0.5, ledger_.params().election_duration / 2.0);
  net_.simulation().schedule_in(period, [this, root] {
    if (!elections_.count(root)) return;
    auto occupant = ledger_.block_at_root(root);
    if (occupant) vote_on(*occupant);
    schedule_revote(root);
  });
}

void LatticeNode::finish_election(const Root& root) {
  auto it = elections_.find(root);
  if (it == elections_.end()) return;
  auto leader = it->second.leader();
  elections_.erase(it);
  if (!leader) return;

  auto current = ledger_.block_at_root(root);
  if (current && current->hash() == leader->first) return;  // kept ours

  auto winner = candidates_.find(leader->first);
  if (winner == candidates_.end()) return;

  if (current) {
    auto removed = ledger_.rollback(current->hash());
    if (!removed) return;  // cemented; cannot switch
    conf_stats_.elections_lost_rollbacks += removed->size();
  }
  if (ledger_.process(winner->second).ok()) {
    after_applied(winner->second);
  }
}

void LatticeNode::maybe_auto_receive(const LatticeBlock& send_block) {
  if (!config_.online) return;  // Fig. 3: must be online to receive
  const crypto::AccountId destination(send_block.link);
  auto idx = account_index_.find(destination);
  if (idx == account_index_.end()) return;

  const crypto::KeyPair key = accounts_[idx->second];
  const BlockHash send_hash = send_block.hash();
  net_.simulation().schedule_in(config_.receive_delay,
                                [this, key, send_hash] {
    (void)receive_pending(key, send_hash);
  });
}

Result<BlockHash> LatticeNode::send(const crypto::KeyPair& from,
                                    const crypto::AccountId& to,
                                    Amount amount) {
  const crypto::AccountId account = from.account_id();
  const AccountInfo* info = ledger_.account(account);
  if (!info) return make_error("no-account", "sender chain does not exist");
  if (info->head().balance < amount)
    return make_error("insufficient-balance");

  LatticeBlock block;
  block.type = BlockType::kSend;
  block.account = account;
  block.previous = info->head().hash();
  block.balance = info->head().balance - amount;
  block.link = to;
  block.representative = info->head().representative;
  auto res = build_and_publish(std::move(block), from);
  if (res) {
    obs::inc(obs_sends_);
    config_.probe.trace(net_.simulation().now(), obs::EventType::kSendIssued,
                        id_, amount, obs::trace_id(to));
  }
  return res;
}

Result<BlockHash> LatticeNode::receive_pending(const crypto::KeyPair& key,
                                               const BlockHash& send_hash) {
  const crypto::AccountId account = key.account_id();

  if (config_.role == NodeRole::kLight) {
    // A light node cannot build a valid receive without ledger context in
    // this implementation; it publishes nothing (observes only).
    return make_error("light-node", "no ledger data to build a receive");
  }

  auto pend = ledger_.pending().find(send_hash);
  if (pend == ledger_.pending().end())
    return make_error("not-pending", "send unknown or already received");
  if (!(pend->second.destination == account))
    return make_error("wrong-destination");

  const AccountInfo* info = ledger_.account(account);
  LatticeBlock block;
  block.account = account;
  block.link = send_hash;
  if (!info) {
    block.type = BlockType::kOpen;
    block.balance = pend->second.amount;
    const crypto::KeyPair* rep = representative_key();
    block.representative = rep ? rep->account_id() : account;
  } else {
    block.type = BlockType::kReceive;
    block.previous = info->head().hash();
    block.balance = info->head().balance + pend->second.amount;
    block.representative = info->head().representative;
  }
  const Amount received = pend->second.amount;
  auto res = build_and_publish(std::move(block), key);
  if (res) {
    obs::inc(obs_receives_);
    config_.probe.trace(net_.simulation().now(),
                        obs::EventType::kReceiveSettled, id_, received,
                        obs::trace_id(send_hash));
  }
  return res;
}

Result<BlockHash> LatticeNode::change_representative(
    const crypto::KeyPair& key, const crypto::AccountId& new_rep) {
  const AccountInfo* info = ledger_.account(key.account_id());
  if (!info) return make_error("no-account");

  LatticeBlock block;
  block.type = BlockType::kChange;
  block.account = key.account_id();
  block.previous = info->head().hash();
  block.balance = info->head().balance;
  block.representative = new_rep;
  return build_and_publish(std::move(block), key);
}

Result<BlockHash> LatticeNode::build_and_publish(LatticeBlock block,
                                                 const crypto::KeyPair& key) {
  if (config_.solve_work) {
    obs::ProfileTimer timer(profile_work_);
    block.solve_work(ledger_.params().work_bits);
  }
  block.sign(key, rng_);

  const BlockHash hash = block.hash();
  first_seen_[hash] = net_.simulation().now();
  Status st = ledger_.process(block);
  if (!st.ok()) return st.error();
  after_applied(block);
  net_.gossip(id_, net::make_message(kMsgBlock, block,
                                     block.serialized_size()));
  return hash;
}

Status LatticeNode::publish(const LatticeBlock& block) {
  process_block(block);
  net_.gossip(id_, net::make_message(kMsgBlock, block,
                                     block.serialized_size()));
  return Status::success();
}

bool LatticeNode::is_confirmed(const BlockHash& hash) const {
  return confirmed_.count(hash) != 0;
}

std::size_t LatticeNode::gap_pool_size() const {
  std::size_t n = 0;
  for (const auto& [key, blocks] : gap_previous_) n += blocks.size();
  for (const auto& [key, blocks] : gap_source_) n += blocks.size();
  return n;
}

}  // namespace dlt::lattice
