// glove::shard — the spatially-sharded anonymization backend, streamed:
// the run boundary for datasets larger than RAM.
//
//   tile -> plan -> run shard jobs -> reconcile borders
//
// The costs of GLOVE that grow with the population of one run (the
// greedy merge loop over its open nodes, paper Sec. 6.3, and the
// candidate grid each of its rescans searches) are confined to spatial
// shards of bounded size, so populations far beyond what one GLOVE run
// can afford become tractable.  The output is k-anonymous as a whole and
// byte-stable across worker counts and budgets.
//
//   pass 1  — scan the source once, keeping only per-fingerprint bounding
//             geometry (+ group size): enough to tile, plan shards, split
//             borders and plan the reconciliation of the deferred border
//             leftovers without ever holding the samples;
//   pass 2+ — one ordered unit list (the shard jobs, then the reconcile
//             plan's pass-throughs, GLOVE chunks and policy tail) runs in
//             batches cut by one rule: units in order, each batch closed
//             before its members pass the budget, whatever their kind.
//             A re-read source rewinds once per batch, materializing only
//             its members, under a budget of max_shard_users x workers
//             fingerprints; a materialized() source is never rewound, and
//             its budget is the whole unit list.  Each batch hands its
//             GLOVE jobs to run_jobs; groups leave in unit order as each
//             batch completes.
//
// Peak sample memory is O(largest batch) instead of O(dataset) or
// O(borders).  The rare absorb tail (fewer than k sub-k leftovers under
// kMergeIntoNearest) may rewrite any finalized group, so that run holds
// its groups back until the tail is absorbed.

#ifndef GLOVE_SHARD_STREAM_HPP
#define GLOVE_SHARD_STREAM_HPP

#include <cstdint>
#include <functional>
#include <vector>

#include "glove/api/source.hpp"
#include "glove/cdr/fingerprint.hpp"
#include "glove/shard/config.hpp"
#include "glove/shard/jobs.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::shard {

/// Receives finalized k-anonymous groups in output order.
using GroupEmitter = std::function<void(cdr::Fingerprint&&)>;

/// Decomposition and phase accounting of a sharded run, on top of the
/// aggregated inner GLOVE counters.
struct ShardedStats {
  core::GloveStats glove;
  std::size_t tiles = 0;
  std::size_t shards = 0;
  std::size_t deferred_fingerprints = 0;
  std::size_t reconciled_groups = 0;
  std::size_t absorbed_leftovers = 0;
  /// Tile edge actually used: the configured tile_size_m, or the
  /// density-derived choice when the config asked for adaptive (0).
  double tile_size_m = 0.0;
  double plan_seconds = 0.0;       ///< streaming scan + tiling + planning
  double reconcile_seconds = 0.0;  ///< the absorb tail, after the batches
};

struct StreamShardedResult {
  ShardedStats stats;
  /// Per-shard sizes and wall-clock, in shard order.
  std::vector<ShardTiming> shard_timings;
  /// Fingerprints read from the source on each pass: the planning scan,
  /// then one entry per batch (the stream.shard_batches counter), so a
  /// re-read source reports 1 + batches passes.  A materialized() source
  /// is never re-streamed, so it reports the single scan pass.  An
  /// index-capable source (fetch()) reports, for each rewound pass, only
  /// the fingerprints that pass materialized.
  std::vector<std::uint64_t> pass_fingerprints;
  /// Threads of the job pool, for the run report's "exec" section.
  std::uint64_t exec_workers = 0;
};

/// Runs the sharded pipeline over a restartable source, emitting groups
/// to `emit` as they are finalized: every shard job and reconcile chunk is
/// core::anonymize with `glove`, over the decomposition `sharded` shapes.
/// Checks both configs before reading the source (core::check_config,
/// shard::check_config; std::invalid_argument).  A source holding fewer
/// than k fingerprints, one whose fingerprint count changes between
/// passes, or a fingerprint whose anchor lies off even a 1 km tile grid
/// raises util::DatasetError; an anchor off the grid of a smaller
/// tile_size_m but on the 1 km grid is the tile size's fault and raises
/// std::invalid_argument (tile_of).  Deterministic for a given source
/// content and configuration, independent of `workers` and batch
/// boundaries.  A run that throws leaves the groups already emitted with
/// the emitter, so a file sink may hold a partial dataset on failure.
[[nodiscard]] StreamShardedResult anonymize_sharded_stream(
    api::DatasetSource& source, const core::GloveConfig& glove,
    const ShardConfig& sharded, const GroupEmitter& emit);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_STREAM_HPP
