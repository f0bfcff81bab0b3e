#include "glove/shard/reconcile.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "glove/core/merge.hpp"
#include "glove/util/parallel.hpp"

namespace glove::shard {

namespace {

/// Merges one sub-k leftover into the minimum-stretch group of `groups`,
/// pruning the scan with the cached group bounds (exactly the
/// lazy-lower-bound trick of `anonymize_pruned`, applied to the absorb
/// scan).  Candidates pop from a min-heap in ascending (lower bound, group)
/// order — the same visitation order a full sort would give, but only the
/// prefix up to the first bound >= the current best true stretch is ever
/// ordered, so the per-leftover cost is the O(G) heap build plus O(log G)
/// per evaluated candidate instead of a full O(G log G) sort.
void absorb_into_nearest(cdr::Fingerprint leftover,
                         std::vector<cdr::Fingerprint>& groups,
                         std::vector<core::FingerprintBounds>& group_bounds,
                         const ShardConfig& config, core::GloveStats& stats) {
  const core::FingerprintBounds bounds = core::fingerprint_bounds(leftover);
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    order.emplace_back(core::stretch_lower_bound(bounds, group_bounds[g],
                                                 config.glove.limits),
                       g);
  }
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  std::size_t best_g = order.front().second;
  double best = std::numeric_limits<double>::infinity();
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [lb, g] = order.back();
    order.pop_back();
    if (lb >= best) break;  // ascending bounds: no later candidate can win
    const double d =
        core::fingerprint_stretch(leftover, groups[g], config.glove.limits);
    ++stats.stretch_evaluations;
    if (d < best) {
      best = d;
      best_g = g;
    }
  }

  core::MergeOptions options;
  options.limits = config.glove.limits;
  options.reshape = config.glove.reshape;
  options.suppression = config.glove.suppression;
  core::MergeStats merge_stats;
  groups[best_g] = core::merge_fingerprints(leftover, groups[best_g], options,
                                            &merge_stats);
  group_bounds[best_g] = core::fingerprint_bounds(groups[best_g]);
  stats.deleted_samples += merge_stats.suppressed_original_samples;
  ++stats.merges;
}

}  // namespace

ReconcilePlan plan_reconcile(std::span<const core::FingerprintBounds> bounds,
                             std::span<const std::uint32_t> group_sizes,
                             const ShardConfig& config) {
  if (bounds.size() != group_sizes.size()) {
    throw std::invalid_argument{
        "plan_reconcile: bounds and group_sizes must align"};
  }
  ReconcilePlan plan;

  // Split into pass-throughs and locality keys, both in leftover order.
  // Positions ascend within the sub-k subsequence, so breaking sort ties
  // by position reproduces anonymize_chunked's (morton, dataset-index)
  // ordering over the sub-k dataset exactly.
  struct Key {
    std::uint64_t morton;
    std::uint32_t position;
  };
  std::vector<Key> keys;
  for (std::uint32_t i = 0; i < group_sizes.size(); ++i) {
    if (group_sizes[i] >= config.glove.k) {
      plan.passthrough.push_back(i);
    } else {
      keys.push_back(Key{core::locality_sort_key(bounds[i]), i});
    }
  }
  plan.subk_count = keys.size();

  if (keys.size() < config.glove.k) {
    // Not enough sub-k leftovers for a GLOVE run of their own: the
    // leftover-policy tail, still in leftover order.
    plan.tail.reserve(keys.size());
    for (const Key& key : keys) plan.tail.push_back(key.position);
    return plan;
  }

  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.morton != b.morton) return a.morton < b.morton;
    return a.position < b.position;
  });

  const std::size_t chunk_size =
      std::max<std::size_t>(config.max_shard_users, config.glove.k);
  std::size_t begin = 0;
  while (begin < keys.size()) {
    std::size_t end = std::min(begin + chunk_size, keys.size());
    // Never leave a tail smaller than k: extend the last chunk instead.
    if (keys.size() - end < config.glove.k && end < keys.size()) {
      end = keys.size();
    }
    std::vector<std::uint32_t> chunk;
    chunk.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      chunk.push_back(keys[i].position);
    }
    plan.chunks.push_back(std::move(chunk));
    begin = end;
  }
  return plan;
}

std::size_t reconcile_tail(std::vector<cdr::Fingerprint> tail,
                           std::vector<cdr::Fingerprint>& groups,
                           const ShardConfig& config, core::GloveStats& stats,
                           const util::RunHooks& hooks) {
  if (config.glove.leftover_policy == core::LeftoverPolicy::kSuppress) {
    for (const cdr::Fingerprint& leftover : tail) {
      stats.discarded_fingerprints += leftover.group_size();
      stats.deleted_samples += leftover.total_contributors();
    }
    return 0;
  }
  if (tail.empty()) return 0;
  if (groups.empty()) {
    // Unreachable for validated inputs: no finalized group means every
    // fingerprint was deferred, i.e. at least k sub-k leftovers.
    throw std::logic_error{"no shard output to absorb leftovers into"};
  }
  std::vector<core::FingerprintBounds> group_bounds(groups.size());
  util::parallel_for(
      groups.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          group_bounds[g] = core::fingerprint_bounds(groups[g]);
        }
      },
      /*min_chunk=*/64);
  for (cdr::Fingerprint& leftover : tail) {
    hooks.throw_if_cancelled();
    absorb_into_nearest(std::move(leftover), groups, group_bounds, config,
                        stats);
  }
  return tail.size();
}

}  // namespace glove::shard
