#include "net/msg_type.hpp"

#include <cassert>
#include <deque>
#include <unordered_map>

namespace dlt::net {
namespace {

struct TransparentHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct TransparentEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

struct Registry {
  // deque: name references stay valid as the registry grows.
  std::deque<std::string> names;
  std::unordered_map<std::string, MsgType, TransparentHash, TransparentEq> ids;
};

Registry& registry() {
  static Registry r;
  return r;
}

}  // namespace

MsgType msg_type(std::string_view name) {
  Registry& r = registry();
  auto it = r.ids.find(name);
  if (it != r.ids.end()) return it->second;
  const MsgType id = static_cast<MsgType>(r.names.size());
  r.names.emplace_back(name);
  r.ids.emplace(r.names.back(), id);
  return id;
}

const std::string& msg_type_name(MsgType id) {
  Registry& r = registry();
  assert(id < r.names.size() && "unknown MsgType");
  return r.names[id];
}

std::size_t msg_type_count() {
  Registry& r = registry();
  return r.names.size();
}

}  // namespace dlt::net
