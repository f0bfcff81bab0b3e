#include "glove/shard/reconcile.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace glove::shard {

ReconcilePlan plan_reconcile(std::span<const core::FingerprintBounds> bounds,
                             std::span<const std::uint32_t> group_sizes,
                             std::uint32_t k, std::size_t max_shard_users) {
  if (bounds.size() != group_sizes.size()) {
    throw std::invalid_argument{
        "plan_reconcile: bounds and group_sizes must align"};
  }
  ReconcilePlan plan;

  // Split into pass-throughs and sub-k leftovers, both in leftover order.
  std::vector<std::uint32_t> subk;
  std::vector<core::FingerprintBounds> subk_bounds;
  for (std::uint32_t i = 0; i < group_sizes.size(); ++i) {
    if (group_sizes[i] >= k) {
      plan.passthrough.push_back(i);
    } else {
      subk.push_back(i);
      subk_bounds.push_back(bounds[i]);
    }
  }
  plan.subk_count = subk.size();

  if (subk.size() < k) {
    // Not enough sub-k leftovers for a GLOVE run of their own: the
    // leftover-policy tail, still in leftover order.
    plan.tail = std::move(subk);
    return plan;
  }

  // Positions ascend within the sub-k subsequence, so chunking it by
  // (key, sub-k position) is locality_chunks over the sub-k dataset; map
  // each chunk member back to its leftover position.
  plan.chunks = core::locality_chunks(
      subk_bounds, std::max<std::size_t>(max_shard_users, k), k);
  for (std::vector<std::uint32_t>& chunk : plan.chunks) {
    for (std::uint32_t& position : chunk) position = subk[position];
  }
  return plan;
}

}  // namespace glove::shard
