// Simulated peer-to-peer overlay network.
//
// Nodes exchange opaque messages over links with configurable latency,
// jitter and bandwidth; gossip floods with per-node deduplication. Network
// delay is the root cause of the paper's Fig. 4 soft forks ("due to network
// delays, some nodes will receive one block over the other") and of the
// real-world throughput ceilings §VI attributes to "network conditions".
//
// Hot-path representation: message types are interned MsgType ids
// (net/msg_type.hpp) and payloads are single-allocation PayloadRef handles
// (net/payload.hpp), so send/relay/deliver copies a Message with one plain
// reference-count increment and no string or std::any traffic. Strings survive only at the
// reporting edge (traffic_by_type(), net.kind.* gauges).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/msg_type.hpp"
#include "net/payload.hpp"
#include "obs/probe.hpp"
#include "sim/simulation.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace dlt::net {

using NodeId = std::uint32_t;
constexpr NodeId kNoNode = ~0u;
constexpr MsgType kNoMsgType = ~0u;

/// A delivered message. `payload` carries an arbitrary protocol object
/// (shared, immutable); `bytes` is its modelled wire size, which drives
/// bandwidth queueing and traffic accounting.
struct Message {
  NodeId from = kNoNode;
  MsgType type = kNoMsgType;
  PayloadRef payload;
  std::size_t bytes = 0;
  std::uint64_t gossip_id = 0;  // nonzero when part of a gossip flood
};

/// Per-link delay model.
struct LinkParams {
  double latency = 0.05;        // seconds, one-way base propagation delay
  double jitter = 0.0;          // stddev of gaussian jitter, seconds
  double bandwidth = 1.25e6;    // bytes/second (default ~10 Mbit/s)
};

struct TrafficStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class Network {
 public:
  Network(sim::Simulation& simulation, Rng rng)
      : sim_(simulation), rng_(std::move(rng)) {}

  /// Adds a node; the handler is invoked on each delivered message.
  NodeId add_node();
  void set_handler(NodeId node, std::function<void(const Message&)> handler);

  std::size_t node_count() const { return nodes_.size(); }

  /// Creates a bidirectional link (both directions share parameters).
  void connect(NodeId a, NodeId b, LinkParams params = {});
  bool connected(NodeId a, NodeId b) const;
  const std::vector<NodeId>& neighbors(NodeId node) const;

  /// Point-to-point send; silently dropped if no link or partitioned.
  void send(NodeId from, NodeId to, Message msg);

  /// Gossip flood: delivers to every reachable node exactly once (including
  /// relay hops and their delays). Returns the flood id.
  std::uint64_t gossip(NodeId origin, Message msg);

  /// Partition management: nodes in different groups cannot communicate.
  /// An empty group list heals all partitions.
  void set_partitions(const std::vector<std::vector<NodeId>>& groups);
  void heal() { set_partitions({}); }

  /// Drop probability applied to every delivery (message loss).
  void set_loss_rate(double p) { loss_rate_ = p; }

  /// Caps per-node gossip dedup memory at ~`window` flood ids (two exact
  /// half-windows rotated deterministically; a duplicate is always detected
  /// while fewer than window/2 newer floods have been recorded at that
  /// node). Evictions are counted in net.gossip.dedup_evictions.
  void set_gossip_dedup_window(std::size_t window);
  /// Flood ids currently remembered by `node` (test/diagnostic accessor).
  std::size_t gossip_dedup_entries(NodeId node) const;
  std::uint64_t gossip_dedup_evictions() const { return dedup_evictions_; }

  const TrafficStats& traffic() const { return total_traffic_; }
  /// Per-type traffic, rendered name-keyed for reports. Built on demand
  /// from the flat per-id table — call once and keep the result, not in a
  /// loop.
  std::map<std::string, TrafficStats> traffic_by_type() const;

  /// Attaches the observability probe: net.messages / net.bytes /
  /// net.dropped counters plus a message_sent trace event per send. The
  /// trace's `kind` field is an interned id assigned in first-send order
  /// (deterministic under the sim); `net.kind.<type>` gauges record the
  /// mapping in the registry.
  void set_probe(obs::Probe probe);

  sim::Simulation& simulation() { return sim_; }
  Rng& rng() { return rng_; }

 private:
  struct Link {
    LinkParams params;
    double busy_until = 0.0;  // serialization queue per direction
  };
  // Two-generation exact dedup window: inserts go to `cur`; when `cur`
  // reaches half the window the older generation is dropped. Rotation
  // order depends only on the insertion sequence, so it is deterministic.
  struct GossipDedup {
    std::unordered_set<std::uint64_t> cur;
    std::unordered_set<std::uint64_t> prev;
  };
  struct NodeState {
    std::function<void(const Message&)> handler;
    std::vector<NodeId> neighbors;
    GossipDedup seen_gossip;
    int partition_group = 0;
  };

  bool partitioned(NodeId a, NodeId b) const;
  Link* find_link(NodeId from, NodeId to);
  void deliver(NodeId from, NodeId to, const Message& msg);
  void relay_gossip(NodeId at, const Message& msg);
  /// Records `id` at `node`; returns false if it was already known.
  bool note_gossip(NodeState& node, std::uint64_t id);
  TrafficStats& traffic_slot(MsgType type);
  std::uint64_t trace_kind(MsgType type);

  sim::Simulation& sim_;
  Rng rng_;
  std::vector<NodeState> nodes_;
  // Directed link state keyed by (from, to).
  std::unordered_map<std::uint64_t, Link> links_;
  std::uint64_t next_gossip_id_ = 1;
  double loss_rate_ = 0.0;
  std::size_t gossip_window_ = 1u << 20;
  std::uint64_t dedup_evictions_ = 0;

  TrafficStats total_traffic_;
  std::vector<TrafficStats> by_type_;  // indexed by MsgType id

  obs::Probe probe_;
  obs::Counter* obs_messages_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
  obs::Counter* obs_dedup_evictions_ = nullptr;
  // message_sent `kind` per MsgType, assigned in first-send order so trace
  // bytes are independent of global MsgType registration order.
  static constexpr std::uint64_t kNoKind = ~0ull;
  std::vector<std::uint64_t> trace_kinds_;
  std::uint64_t next_trace_kind_ = 0;
};

/// Topology builders (return the network for chaining-free use).
void build_complete(Network& net, const std::vector<NodeId>& nodes,
                    LinkParams params = {});
void build_ring(Network& net, const std::vector<NodeId>& nodes,
                LinkParams params = {});
/// Each node links to `degree` uniformly random distinct peers.
void build_random(Network& net, const std::vector<NodeId>& nodes,
                  std::size_t degree, Rng& rng, LinkParams params = {});
/// Watts-Strogatz small world: ring with k nearest neighbours, rewired
/// with probability beta.
void build_small_world(Network& net, const std::vector<NodeId>& nodes,
                       std::size_t k, double beta, Rng& rng,
                       LinkParams params = {});

/// Convenience for constructing a typed message (hot overload: the type is
/// already interned, typically a namespace-scope constant).
template <typename T>
Message make_message(MsgType type, T payload, std::size_t bytes) {
  Message m;
  m.type = type;
  m.payload = PayloadRef::make<T>(std::move(payload));
  m.bytes = bytes;
  return m;
}

/// Convenience overload that interns the type name first (tests, one-off
/// sends; not for per-message hot paths).
template <typename T>
Message make_message(std::string_view type, T payload, std::size_t bytes) {
  return make_message(msg_type(type), std::move(payload), bytes);
}
template <typename T>
Message make_message(const char* type, T payload, std::size_t bytes) {
  return make_message(msg_type(type), std::move(payload), bytes);
}

/// Extracts a typed payload (asserts on type mismatch in debug builds).
template <typename T>
const T& payload_as(const Message& msg) {
  return msg.payload.as<T>();
}

}  // namespace dlt::net
