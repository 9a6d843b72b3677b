// Test oracle for tangle::Tangle's attach-order index. It rebuilds the DAG
// only through the public surface — tips() and find()->trunk/branch — and
// recomputes every cone answer with its own hash-keyed BFS: the
// future-cone walk the cumulative weight used to run on every MCMC step,
// and the per-tip past-cone scan the confirmation sweep used to run. The
// index's answers must match it exactly.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "tangle/tangle.hpp"

namespace dlt::tangle::testutil {

/// Checks, for every transaction of `tangle`: cumulative_weight,
/// past_cone, cone_spend_keys and confirmation_confidence against the
/// oracle; that tips() is exactly the set of transactions nothing
/// approves; and that confirmed_by_tips(t) is the sorted set of
/// non-genesis transactions with approving-tip count ≥ t × |tips|, for
/// t = `threshold` and for every t = count / |tips| a transaction sits on.
inline void expect_index_matches_oracle(const Tangle& tangle,
                                        double threshold = 0.5) {
  const std::vector<TxHash> tips = tangle.tips();
  const std::unordered_set<TxHash> tip_set(tips.begin(), tips.end());
  ASSERT_EQ(tip_set.size(), tips.size()) << "tips() repeats a hash";

  // Rebuild: every transaction is a tip or an ancestor of one.
  std::unordered_map<TxHash, std::vector<TxHash>> parents, children;
  std::deque<TxHash> frontier(tips.begin(), tips.end());
  while (!frontier.empty()) {
    const TxHash h = frontier.front();
    frontier.pop_front();
    if (parents.count(h)) continue;
    const TangleTx* tx = tangle.find(h);
    ASSERT_NE(tx, nullptr);
    std::vector<TxHash>& ps = parents[h];
    children[h];
    if (h == tangle.genesis()) continue;
    ps.push_back(tx->trunk);
    if (tx->branch != tx->trunk) ps.push_back(tx->branch);
    for (const TxHash& p : ps) {
      children[p].push_back(h);
      frontier.push_back(p);
    }
  }
  ASSERT_EQ(parents.size(), tangle.size());

  auto bfs = [](const TxHash& from,
                const std::unordered_map<TxHash, std::vector<TxHash>>& edges) {
    std::unordered_set<TxHash> seen;
    std::deque<TxHash> queue{from};
    while (!queue.empty()) {
      const TxHash cur = queue.front();
      queue.pop_front();
      if (!seen.insert(cur).second) continue;
      for (const TxHash& next : edges.at(cur)) queue.push_back(next);
    }
    return seen;
  };

  // Tip-set invariant: the tips are exactly the unapproved transactions.
  std::unordered_set<TxHash> unapproved;
  for (const auto& [h, kids] : children)
    if (kids.empty()) unapproved.insert(h);
  EXPECT_EQ(tip_set, unapproved);

  std::unordered_map<TxHash, std::size_t> approving;
  for (const TxHash& tip : tips)
    for (const TxHash& h : bfs(tip, parents)) ++approving[h];

  std::vector<double> thresholds{threshold};
  for (const auto& [h, ps] : parents) {
    const std::unordered_set<TxHash> cone = bfs(h, parents);
    EXPECT_EQ(tangle.past_cone(h), cone);

    std::unordered_set<Hash256> keys;
    for (const TxHash& a : cone)
      if (!tangle.find(a)->spend_key.is_zero())
        keys.insert(tangle.find(a)->spend_key);
    EXPECT_EQ(tangle.cone_spend_keys(h), keys);

    std::size_t weight = 0;
    for (const TxHash& d : bfs(h, children))
      weight += static_cast<std::size_t>(tangle.find(d)->own_weight);
    EXPECT_EQ(tangle.cumulative_weight(h), weight);

    const double share = static_cast<double>(approving[h]) /
                         static_cast<double>(tips.size());
    EXPECT_EQ(tangle.confirmation_confidence(h), share);
    thresholds.push_back(share);
  }

  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  for (const double t : thresholds) {
    const double needed = t * static_cast<double>(tips.size());
    std::vector<TxHash> crossed;
    for (const auto& [h, count] : approving)
      if (h != tangle.genesis() && static_cast<double>(count) >= needed)
        crossed.push_back(h);
    std::sort(crossed.begin(), crossed.end());
    EXPECT_EQ(tangle.confirmed_by_tips(t), crossed) << "threshold " << t;
  }
}

}  // namespace dlt::tangle::testutil
