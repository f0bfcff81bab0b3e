// RunConfig: the one validated configuration for every anonymization
// strategy the Engine can drive.  Shared knobs (k, stretch limits,
// suppression) sit at the top level; strategy-specific knobs live in
// per-strategy sections that are ignored by the other strategies.  The
// Engine checks every field before it reads any data: a non-finite or
// out-of-range value is kInvalidConfig.

#ifndef GLOVE_API_CONFIG_HPP
#define GLOVE_API_CONFIG_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"

namespace glove::api {

/// The four strategy names, the whole set Engine::run dispatches on.
inline constexpr std::string_view kStrategyFull = "full";
inline constexpr std::string_view kStrategyIncremental = "incremental";
inline constexpr std::string_view kStrategyW4M = "w4m-baseline";
inline constexpr std::string_view kStrategySharded = "sharded";

struct RunConfig {
  /// Strategy to run: one of the four names above (Engine::strategies()).
  std::string strategy{kStrategyFull};

  // --- Shared knobs (GLOVE family; W4M uses only `k`).
  /// Target anonymity level; every output fingerprint hides >= k users.
  std::uint32_t k = 2;
  core::StretchLimits limits;
  /// Per-merge suppression thresholds (Sec. 7.1); disabled when empty.
  std::optional<core::SuppressionThresholds> suppression;
  /// Resolve temporal overlaps after each merge (Fig. 6b).
  bool reshape = true;
  core::LeftoverPolicy leftover_policy =
      core::LeftoverPolicy::kMergeIntoNearest;

  // --- Strategy sections.
  struct W4MSection {
    /// Diameter of the uncertainty cylinder, metres.
    double delta_m = 2'000.0;
    /// Maximum fraction of trajectories discarded as outliers, in [0, 1).
    double trash_fraction = 0.10;
    /// Trajectories per clustering chunk (the LC variant); must be >= k.
    std::size_t chunk_size = 512;
    /// Published-to-original timestamp match tolerance, minutes.
    double match_tolerance_min = 1.0;
  } w4m;

  struct ShardedSection {
    /// Edge length of the spatial tiles fingerprints are bucketed into.
    /// 0 = adaptive: derived from the anchor density observed during the
    /// planning pass (targets a fingerprints-per-tile band and shrinks
    /// until the densest tile fits max_shard_users).  The resolved value
    /// is reported as the "tile_size_m" run metric.
    double tile_size_m = 25'000.0;
    /// Load-balancing target: fingerprints per shard; must be >= k.
    std::size_t max_shard_users = 2'000;
    /// Threads that run shard and reconcile jobs; 0 = shared-pool
    /// default (GLOVE_THREADS when set, else hardware concurrency).  The
    /// output is byte-identical for every worker count; 1 holds the
    /// fewest fingerprints in memory at once.
    std::size_t workers = 0;
    /// Border strip width, metres: fingerprints this close to a tile of
    /// another shard are deferred to the cross-shard reconciliation.
    double halo_m = 1'000.0;
  } sharded;

  struct IncrementalSection {
    /// The already-published k-anonymized release; the run's input dataset
    /// is then the set of newcomers (single-user fingerprints).  When
    /// null, the run starts from an empty release and the newcomers are
    /// grouped among themselves.  The pointee must outlive the run.
    const cdr::FingerprintDataset* published = nullptr;
  } incremental;
};

}  // namespace glove::api

#endif  // GLOVE_API_CONFIG_HPP
