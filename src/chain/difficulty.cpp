#include "chain/difficulty.hpp"

#include <algorithm>

namespace dlt::chain {

double retarget_difficulty(const ChainParams& params, double old_difficulty,
                           double actual_span, std::uint32_t intervals) {
  if (intervals == 0) return old_difficulty;
  const double ideal_span =
      params.block_interval * static_cast<double>(intervals);
  // Guard degenerate spans (identical timestamps in fast simulations).
  const double span = std::max(actual_span, ideal_span * 1e-6);
  double ratio = ideal_span / span;  // blocks too fast -> ratio > 1
  ratio = std::clamp(ratio, 1.0 / params.retarget_clamp,
                     params.retarget_clamp);
  const double next = old_difficulty * ratio;
  return std::max(next, 1.0);
}

double scheduled_difficulty(
    const ChainParams& params, std::uint32_t parent_height,
    double parent_difficulty, double parent_timestamp,
    const std::function<double(std::uint32_t)>& timestamp_at) {
  if (params.consensus == ConsensusKind::kProofOfStake) return 1.0;
  const std::uint32_t h_next = parent_height + 1;
  const std::uint32_t window = params.retarget_window;
  if (window == 0 || h_next % window != 0) return parent_difficulty;

  std::uint32_t anc_height;
  std::uint32_t intervals;
  if (window == 1) {
    // Per-block adjustment (Ethereum-style): last observed interval.
    if (parent_height < 1) return parent_difficulty;
    anc_height = parent_height - 1;
    intervals = 1;
  } else {
    anc_height = h_next - window;  // h_next is a positive multiple of window
    intervals = window - 1;
  }
  return retarget_difficulty(params, parent_difficulty,
                             parent_timestamp - timestamp_at(anc_height),
                             intervals);
}

}  // namespace dlt::chain
