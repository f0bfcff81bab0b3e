// Cross-shard reconciliation: the deterministic final phase that makes the
// sharded output k-anonymous as a whole.
//
// Its input is every fingerprint the border split deferred (border
// fingerprints plus whole shards whose kept set fell below k).  Groups already at or above k pass straight through; the
// sub-k rest is anonymized together over locality-sorted chunks (so
// cross-tile candidate pairs — the reason the fingerprints were deferred —
// are merge candidates again).  A remainder smaller than k falls back to
// the configured leftover policy: absorbed into the nearest finalized
// group, or suppressed.
//
// The schedule is planned from per-leftover bounding geometry and group
// sizes alone (both resident after the pass-1 scan).  The streaming
// pipeline runs each GLOVE chunk as a job, exactly like a shard (run_jobs);
// the chunks come from core::locality_chunks, so together they publish
// what core::anonymize publishes over each of those chunks of the sub-k
// set.  The policy tail runs last, through core::absorb_leftovers over the
// groups the run holds back for it.

#ifndef GLOVE_SHARD_RECONCILE_HPP
#define GLOVE_SHARD_RECONCILE_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "glove/core/scalability.hpp"

namespace glove::shard {

/// The reconciliation schedule, derived from per-leftover bounding
/// geometry and group sizes alone — never the samples.  Every entry is a
/// position into the leftover sequence (its (shard, member) order).
/// Output order across the whole phase: `passthrough` first, then each
/// chunk's GLOVE output in chunk order, then the `tail` policy result.
struct ReconcilePlan {
  /// Leftovers already hiding >= k users (possible when the input is a
  /// re-anonymization): passed through unchanged, in leftover order.
  std::vector<std::uint32_t> passthrough;
  /// When at least k sub-k leftovers exist: the sub-k positions cut by
  /// core::locality_chunks into GLOVE chunks of max(max_shard_users, k)
  /// members (ties in the locality key broken by leftover order).
  std::vector<std::vector<std::uint32_t>> chunks;
  /// When fewer than k sub-k leftovers exist: their positions in leftover
  /// order, handled by the configured leftover policy (absorb into the
  /// nearest finalized group, or suppress).  Empty whenever `chunks` is
  /// non-empty.
  std::vector<std::uint32_t> tail;
  /// Total sub-k leftovers (the chunk members, or the tail).
  std::size_t subk_count = 0;
};

/// Plans the reconciliation from pass-1 residue.  `bounds[i]` and
/// `group_sizes[i]` describe the i-th deferred leftover; the spans must
/// have equal length (std::invalid_argument otherwise).  Reads the run's
/// anonymity level k and its shard budget, the chunk size.  Deterministic
/// in its inputs.
[[nodiscard]] ReconcilePlan plan_reconcile(
    std::span<const core::FingerprintBounds> bounds,
    std::span<const std::uint32_t> group_sizes, std::uint32_t k,
    std::size_t max_shard_users);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_RECONCILE_HPP
