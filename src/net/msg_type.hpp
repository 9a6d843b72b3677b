// Interned message-type ids.
//
// Message types used to be std::string fields compared and hashed on every
// send/deliver/traffic-account. Types are a tiny closed set per experiment
// (block, tx, vote, ...), so they are interned once into dense uint32 ids
// at registration; the hot path then compares and indexes integers, and the
// string name is looked up only when rendering reports/JSON.
//
// Determinism: ids are assigned in registration order. Every node layer
// registers its types via namespace-scope `const MsgType k... =
// msg_type("...")` initializers, so the id assignment order is frozen by
// static-initialization order within each translation unit — and the ids
// themselves never appear in traces or registry JSON (the per-network
// first-send interning in net::Network covers those surfaces).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dlt::net {

/// Dense interned id for a message type. Value-comparable, hashable, cheap
/// to copy; use msg_type() to obtain one and msg_type_name() to render it.
using MsgType = std::uint32_t;

/// Interns `name`, returning its id (stable for the process lifetime).
/// Repeated calls with the same name return the same id.
MsgType msg_type(std::string_view name);

/// The name `id` was registered with. Asserts on unknown ids.
const std::string& msg_type_name(MsgType id);

/// Number of distinct types registered so far (ids are 0..count-1).
std::size_t msg_type_count();

}  // namespace dlt::net
