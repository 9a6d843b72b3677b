#include "obs/trace.hpp"

#include <cstdlib>
#include <fstream>
#include <map>

#include "support/log.hpp"

namespace dlt::obs {

namespace {

struct EventSchema {
  const char* name;
  const char* a;
  const char* b;
};

// Indexed by EventType; keep in sync with the enum.
constexpr EventSchema kSchemas[kEventTypeCount] = {
    {"block_mined", "height", "txs"},
    {"block_received", "height", "id"},
    {"fork_opened", "height", "id"},
    {"reorg_applied", "depth", "height"},
    {"vote_cast", "target", "id"},
    {"quorum_reached", "target", "id"},
    {"send_issued", "amount", "peer"},
    {"receive_settled", "amount", "peer"},
    {"tx_included", "id", "height"},
    {"tx_confirmed", "id", "height"},
    {"message_sent", "kind", "bytes"},
    {"tip_attached", "id", "parents"},
    {"tx_submitted", "id", "aux"},
    {"tx_admitted", "id", "aux"},
    {"tx_evicted", "id", "aux"},
};

const EventSchema& schema(EventType t) {
  return kSchemas[static_cast<std::size_t>(t)];
}

}  // namespace

void Tracer::enable(std::size_t capacity) {
  if (capacity == 0) {
    disable();
    return;
  }
  enabled_ = true;
  capacity_ = capacity;
  head_ = 0;
  recorded_ = 0;
  dropped_ = 0;
  for (auto& c : per_type_) c = 0;
  ring_.clear();
  ring_.reserve(capacity_);
}

void Tracer::disable() {
  enabled_ = false;
  capacity_ = 0;
  head_ = 0;
  ring_.clear();
  ring_.shrink_to_fit();
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(retained(i));
  return out;
}

std::string Tracer::event_json(const TraceEvent& ev) {
  const EventSchema& s = schema(ev.type);
  std::string out = "{\"t\":";
  out += support::json_number(ev.time);
  out += ",\"ev\":\"";
  out += s.name;
  out += "\",\"node\":";
  out += std::to_string(ev.node);
  out += ",\"";
  out += s.a;
  out += "\":";
  out += std::to_string(ev.a);
  out += ",\"";
  out += s.b;
  out += "\":";
  out += std::to_string(ev.b);
  out += "}";
  return out;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out += event_json(retained(i));
    out += "\n";
  }
  return out;
}

bool Tracer::export_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    DLT_LOG_WARN("cannot write trace %s", path.c_str());
    return false;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out << event_json(retained(i)) << '\n';
  return out.good();
}

support::JsonObject Tracer::summary_json() const {
  support::JsonObject o;
  o.put("enabled", enabled_);
  o.put("recorded", recorded_);
  o.put("dropped", dropped_);
  o.put("retained", static_cast<std::uint64_t>(ring_.size()));

  // Per-type counts in schema-name order for deterministic output; only
  // nonzero entries so quiet runs stay compact.
  std::map<std::string, std::uint64_t> by_type;
  for (std::size_t i = 0; i < kEventTypeCount; ++i)
    if (per_type_[i] > 0) by_type[kSchemas[i].name] = per_type_[i];
  support::JsonObject types;
  for (const auto& [name, n] : by_type) types.put(name, n);
  o.put_raw("by_type", types.to_string());

  if (!ring_.empty()) {
    o.put("first_time", retained(0).time);
    o.put("last_time", retained(ring_.size() - 1).time);
  }
  return o;
}

std::size_t trace_capacity_from_env() {
  const char* env = std::getenv("DLT_TRACE");
  if (!env || !*env) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env) return 0;          // non-numeric → disabled
  if (v == 0) return 0;              // "0" → disabled
  if (v == 1) return std::size_t{1} << 20;  // "1" → default capacity
  return static_cast<std::size_t>(v);
}

}  // namespace dlt::obs
