#include "chain/fast_sync.hpp"

namespace dlt::chain {

SyncPlan plan_full_sync(const Blockchain& source) {
  SyncPlan plan;
  for (std::uint32_t h = 0; h <= source.height(); ++h) {
    const Block* b = source.at_height(h);
    plan.header_bytes += b->header.serialized_size();
    plan.body_bytes +=
        b->serialized_size() - b->header.serialized_size();
    plan.txs_replayed += b->tx_count();
  }
  plan.pivot_height = 0;
  return plan;
}

Result<SyncPlan> plan_fast_sync(const Blockchain& source,
                                std::uint32_t pivot_offset) {
  if (source.params().tx_model != TxModel::kAccount)
    return make_error("unsupported", "fast sync needs the account model");

  SyncPlan plan;
  plan.pivot_height =
      source.height() > pivot_offset ? source.height() - pivot_offset : 0;

  for (std::uint32_t h = 0; h <= source.height(); ++h) {
    const Block* b = source.at_height(h);
    plan.header_bytes += b->header.serialized_size();
    if (h <= plan.pivot_height) {
      // Receipts only; transactions are never re-executed.
      plan.receipt_bytes +=
          b->tx_count() * source.params().receipt_bytes_per_tx;
    } else {
      plan.body_bytes +=
          b->serialized_size() - b->header.serialized_size();
      plan.txs_replayed += b->tx_count();
    }
  }

  const Block* pivot = source.at_height(plan.pivot_height);
  auto pivot_state = source.state_db().get(pivot->header.state_root);
  if (!pivot_state)
    return make_error("pruned-pivot",
                      "source pruned the pivot state version");
  auto [nodes, bytes] = pivot_state->trie().measure();
  plan.state_nodes = nodes;
  plan.state_bytes = bytes;
  return plan;
}

Result<WorldState> execute_fast_sync(const Blockchain& source,
                                     std::uint32_t pivot_offset) {
  auto plan = plan_fast_sync(source, pivot_offset);
  if (!plan) return plan.error();

  const Block* pivot = source.at_height(plan->pivot_height);
  auto pivot_state = source.state_db().get(pivot->header.state_root);
  if (!pivot_state) return make_error("pruned-pivot");

  // "Download" the state: rebuild a fresh trie from the wire entries, then
  // verify the reconstruction matches the pivot header's commitment.
  WorldState rebuilt;
  std::vector<std::pair<Hash256, Bytes>> entries;
  pivot_state->trie().for_each(
      [&entries](const crypto::Nibbles& key, const Bytes& value) {
        entries.emplace_back(crypto::nibbles_to_key(key), value);
      });
  for (const auto& [key, value] : entries) {
    auto st = AccountState::decode(ByteView{value.data(), value.size()});
    if (!st) return make_error("corrupt-state-entry");
    rebuilt = rebuilt.with_account(key, *st);
  }

  if (rebuilt.root() != pivot->header.state_root)
    return make_error("state-root-mismatch",
                      "downloaded state fails verification");
  return rebuilt;
}

}  // namespace dlt::chain
