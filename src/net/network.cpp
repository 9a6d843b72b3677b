#include "net/network.hpp"

#include <algorithm>
#include <cassert>

namespace dlt::net {
namespace {

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

}  // namespace

NodeId Network::add_node() {
  nodes_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Network::set_handler(NodeId node,
                          std::function<void(const Message&)> handler) {
  assert(node < nodes_.size());
  nodes_[node].handler = std::move(handler);
}

void Network::connect(NodeId a, NodeId b, LinkParams params) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  if (connected(a, b)) return;
  links_[link_key(a, b)] = Link{params, 0.0};
  links_[link_key(b, a)] = Link{params, 0.0};
  nodes_[a].neighbors.push_back(b);
  nodes_[b].neighbors.push_back(a);
}

bool Network::connected(NodeId a, NodeId b) const {
  return links_.count(link_key(a, b)) != 0;
}

const std::vector<NodeId>& Network::neighbors(NodeId node) const {
  assert(node < nodes_.size());
  return nodes_[node].neighbors;
}

bool Network::partitioned(NodeId a, NodeId b) const {
  return nodes_[a].partition_group != nodes_[b].partition_group;
}

Network::Link* Network::find_link(NodeId from, NodeId to) {
  auto it = links_.find(link_key(from, to));
  return it == links_.end() ? nullptr : &it->second;
}

void Network::set_probe(obs::Probe probe) {
  probe_ = probe;
  obs_messages_ = probe_.counter("net.messages");
  obs_bytes_ = probe_.counter("net.bytes");
  obs_dropped_ = probe_.counter("net.dropped");
  obs_dedup_evictions_ = probe_.counter("net.gossip.dedup_evictions");
}

void Network::set_gossip_dedup_window(std::size_t window) {
  gossip_window_ = std::max<std::size_t>(window, 2);
}

std::size_t Network::gossip_dedup_entries(NodeId node) const {
  assert(node < nodes_.size());
  const GossipDedup& d = nodes_[node].seen_gossip;
  return d.cur.size() + d.prev.size();
}

TrafficStats& Network::traffic_slot(MsgType type) {
  if (type >= by_type_.size()) by_type_.resize(type + 1);
  return by_type_[type];
}

std::map<std::string, TrafficStats> Network::traffic_by_type() const {
  std::map<std::string, TrafficStats> out;
  for (MsgType id = 0; id < by_type_.size(); ++id) {
    const TrafficStats& t = by_type_[id];
    if (t.messages == 0 && t.bytes == 0) continue;
    out.emplace(msg_type_name(id), t);
  }
  return out;
}

std::uint64_t Network::trace_kind(MsgType type) {
  if (type >= trace_kinds_.size()) trace_kinds_.resize(type + 1, kNoKind);
  std::uint64_t& kind = trace_kinds_[type];
  if (kind == kNoKind) {
    kind = next_trace_kind_++;
    if (probe_.metrics)
      probe_.metrics->gauge("net.kind." + msg_type_name(type))
          .set(static_cast<double>(kind));
  }
  return kind;
}

void Network::send(NodeId from, NodeId to, Message msg) {
  assert(msg.type != kNoMsgType && "message type not set");
  Link* link = find_link(from, to);
  if (link == nullptr || partitioned(from, to)) return;
  if (loss_rate_ > 0.0 && rng_.chance(loss_rate_)) {
    obs::inc(obs_dropped_);
    return;
  }

  msg.from = from;

  // Serialization delay: the link transmits one message at a time.
  const double now = sim_.now();
  const double start = std::max(now, link->busy_until);
  const double tx_time =
      static_cast<double>(msg.bytes) / std::max(link->params.bandwidth, 1.0);
  link->busy_until = start + tx_time;

  double prop = link->params.latency;
  if (link->params.jitter > 0.0)
    prop = std::max(0.0, rng_.normal(prop, link->params.jitter));

  const double arrive = start + tx_time + prop;

  total_traffic_.messages += 1;
  total_traffic_.bytes += msg.bytes;
  TrafficStats& t = traffic_slot(msg.type);
  t.messages += 1;
  t.bytes += msg.bytes;

  obs::inc(obs_messages_);
  obs::inc(obs_bytes_, msg.bytes);
  if (probe_.tracer && probe_.tracer->enabled()) {
    probe_.tracer->record(now, obs::EventType::kMessageSent, from,
                          trace_kind(msg.type), msg.bytes);
  }

  sim_.schedule_at(arrive, [this, to, msg = std::move(msg)] {
    deliver(msg.from, to, msg);
  });
}

bool Network::note_gossip(NodeState& node, std::uint64_t id) {
  GossipDedup& d = node.seen_gossip;
  if (d.prev.count(id) != 0) return false;
  if (!d.cur.insert(id).second) return false;
  if (d.cur.size() >= gossip_window_ / 2) {
    dedup_evictions_ += d.prev.size();
    obs::inc(obs_dedup_evictions_, d.prev.size());
    d.prev = std::move(d.cur);
    d.cur.clear();
  }
  return true;
}

void Network::deliver(NodeId /*from*/, NodeId to, const Message& msg) {
  assert(to < nodes_.size());
  NodeState& node = nodes_[to];
  if (msg.gossip_id != 0) {
    if (!note_gossip(node, msg.gossip_id)) return;  // duplicate
    relay_gossip(to, msg);
  }
  if (node.handler) node.handler(msg);
}

void Network::relay_gossip(NodeId at, const Message& msg) {
  for (NodeId peer : nodes_[at].neighbors) {
    if (peer == msg.from) continue;
    Message copy = msg;
    send(at, peer, std::move(copy));
  }
}

std::uint64_t Network::gossip(NodeId origin, Message msg) {
  assert(origin < nodes_.size());
  msg.gossip_id = next_gossip_id_++;
  note_gossip(nodes_[origin], msg.gossip_id);
  msg.from = origin;
  relay_gossip(origin, msg);
  return msg.gossip_id;
}

void Network::set_partitions(const std::vector<std::vector<NodeId>>& groups) {
  for (auto& n : nodes_) n.partition_group = 0;
  int g = 1;
  for (const auto& group : groups) {
    for (NodeId id : group) {
      assert(id < nodes_.size());
      nodes_[id].partition_group = g;
    }
    ++g;
  }
}

void build_complete(Network& net, const std::vector<NodeId>& nodes,
                    LinkParams params) {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      net.connect(nodes[i], nodes[j], params);
}

void build_ring(Network& net, const std::vector<NodeId>& nodes,
                LinkParams params) {
  if (nodes.size() < 2) return;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    net.connect(nodes[i], nodes[(i + 1) % nodes.size()], params);
}

void build_random(Network& net, const std::vector<NodeId>& nodes,
                  std::size_t degree, Rng& rng, LinkParams params) {
  if (nodes.size() < 2) return;
  // Ring first so the graph is always connected, then random extra edges.
  build_ring(net, nodes, params);
  for (NodeId a : nodes) {
    for (std::size_t d = 0; d < degree; ++d) {
      const NodeId b = nodes[rng.uniform(nodes.size())];
      if (a != b && !net.connected(a, b)) net.connect(a, b, params);
    }
  }
}

void build_small_world(Network& net, const std::vector<NodeId>& nodes,
                       std::size_t k, double beta, Rng& rng,
                       LinkParams params) {
  const std::size_t n = nodes.size();
  if (n < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 1; j <= k / 2; ++j) {
      NodeId target = nodes[(i + j) % n];
      if (rng.chance(beta)) {
        // Rewire to a uniform random non-self, non-duplicate peer.
        for (int tries = 0; tries < 16; ++tries) {
          const NodeId cand = nodes[rng.uniform(n)];
          if (cand != nodes[i] && !net.connected(nodes[i], cand)) {
            target = cand;
            break;
          }
        }
      }
      if (target != nodes[i] && !net.connected(nodes[i], target))
        net.connect(nodes[i], target, params);
    }
  }
}

}  // namespace dlt::net
