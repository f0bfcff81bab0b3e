// Configuration of the spatially-sharded anonymization backend, the one
// way to bound the population of a GLOVE run: the geo space is tiled on a
// regular grid, tiles are packed into load-balanced shards, every shard
// runs the exact GLOVE pipeline independently (in parallel across a worker
// pool), and a deterministic reconciliation pass handles fingerprints near
// shard borders so candidate merge pairs spanning tiles are not lost.
//
// ShardConfig declares only the knobs of the decomposition and the
// scheduler; the GLOVE knobs (k, suppression, reshape, leftover policy)
// travel beside it as a core::GloveConfig.  The Engine's api::RunConfig
// holds this struct as its `sharded` section.

#ifndef GLOVE_SHARD_CONFIG_HPP
#define GLOVE_SHARD_CONFIG_HPP

#include <cstddef>
#include <cstdint>

namespace glove::shard {

/// Sharded-run configuration.
struct ShardConfig {
  /// Edge length of the square spatial tiles fingerprints are bucketed
  /// into (by bounding-box centre).  Smaller tiles mean more, smaller
  /// shards: faster but with more border traffic.  0 = adaptive
  /// (choose_tile_size derives the edge from the observed anchor density;
  /// the resolved value is reported as the "tile_size_m" run metric).
  double tile_size_m = 25'000.0;

  /// Load-balancing target: the planner packs whole tiles into shards of
  /// at most this many fingerprints (a single tile larger than the budget
  /// stays one shard — shrink `tile_size_m` instead).  Must be >= k.
  std::size_t max_shard_users = 2'000;

  /// Threads of the pool that runs shard and reconcile jobs; 0 follows
  /// the shared-pool default (GLOVE_THREADS when set, else hardware
  /// concurrency).  Also sizes the batch budget of re-read sources
  /// (max_shard_users x workers fingerprints materialized per pass).  The
  /// per-job inner loops additionally use the shared pool, exactly like
  /// the non-sharded strategies.  Output is identical for every worker
  /// count (byte-stable determinism is tested); 1 holds the fewest
  /// fingerprints at once.
  std::size_t workers = 0;

  /// Width of the border strip, metres: a fingerprint is deferred to the
  /// cross-shard reconciliation, where it can merge with partners from any
  /// shard, when its bounding box, inflated by this margin, touches a tile
  /// owned by a different shard.  Keeping every fingerprint in its home
  /// shard instead cost 14-30% more cpu on 8k-user inputs (ROADMAP
  /// findings).
  double halo_m = 1'000.0;
};

/// Throws std::invalid_argument unless tile_size_m is finite and >= 0,
/// halo_m finite and >= 0, max_shard_users >= k and workers <= 4096 (a
/// larger count is a config mistake, e.g. a wrapped negative, not a
/// parallelism request).  Each test is written so that NaN fails it.
void check_config(const ShardConfig& config, std::uint32_t k);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_CONFIG_HPP
