// Dynamic difficulty retargeting (paper §VI-A).
//
// "The PoW puzzle difficulty is dynamic so that the block generation time
// converges to a fixed value" -- this is why adding miners does not add
// throughput, the key §VI-A scalability point.
#pragma once

#include <cstdint>
#include <functional>

#include "chain/params.hpp"

namespace dlt::chain {

/// New difficulty after a completed retarget window.
/// `actual_span` is the observed time for `intervals` block intervals;
/// the adjustment is clamped to params.retarget_clamp in either direction.
double retarget_difficulty(const ChainParams& params, double old_difficulty,
                           double actual_span, std::uint32_t intervals);

/// Difficulty the block at height `parent_height + 1` must carry: the one
/// retarget schedule full nodes and light clients both apply. PoS: 1.
/// Window 0 or off a window boundary: the parent's difficulty. Window 1:
/// retarget over the parent's own interval. Window N: retarget over the
/// N - 1 intervals since the ancestor at height `h_next - N`.
/// `timestamp_at(h)` returns the timestamp of the parent's ancestor at
/// height h; it is called only on a retarget.
double scheduled_difficulty(
    const ChainParams& params, std::uint32_t parent_height,
    double parent_difficulty, double parent_timestamp,
    const std::function<double(std::uint32_t)>& timestamp_at);

/// Work contributed by one block at `difficulty` (expected hash attempts).
/// Cumulative work drives the longest/heaviest-chain rule.
inline double block_work(double difficulty) { return difficulty; }

}  // namespace dlt::chain
