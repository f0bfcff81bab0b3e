// The built-in Anonymizer strategies, each a thin adapter from the
// uniform RunConfig onto the corresponding core/shard/baseline algorithm.
// The algorithms themselves are unchanged — the parity test locks every
// single-matrix strategy's output to the pre-Engine free function byte
// for byte.

#include "glove/api/engine.hpp"
#include "glove/baseline/w4m.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/incremental.hpp"
#include "glove/shard/stream.hpp"

namespace glove::api {

namespace {

core::GloveConfig to_glove_config(const RunConfig& config) {
  core::GloveConfig glove;
  glove.k = config.k;
  glove.limits = config.limits;
  glove.suppression = config.suppression;
  glove.reshape = config.reshape;
  glove.leftover_policy = config.leftover_policy;
  return glove;
}

RunCounters from_glove_stats(const core::GloveStats& stats) {
  RunCounters counters;
  counters.input_users = stats.input_users;
  counters.input_samples = stats.input_samples;
  counters.output_groups = stats.output_groups;
  counters.output_samples = stats.output_samples;
  counters.merges = stats.merges;
  counters.deleted_samples = stats.deleted_samples;
  counters.discarded_fingerprints = stats.discarded_fingerprints;
  counters.stretch_evaluations = stats.stretch_evaluations;
  return counters;
}

StrategyOutcome from_glove_result(core::GloveResult result) {
  StrategyOutcome outcome;
  outcome.counters = from_glove_stats(result.stats);
  outcome.init_seconds = result.stats.init_seconds;
  outcome.merge_seconds = result.stats.merge_seconds;
  outcome.anonymized = std::move(result.anonymized);
  return outcome;
}

class FullStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return kStrategyFull; }
  std::string_view description() const noexcept override {
    return "GLOVE greedy k-anonymization over the full pair matrix (Alg. 1)";
  }
  StrategyOutcome run(const cdr::FingerprintDataset& data,
                      const RunConfig& config) const override {
    return from_glove_result(core::anonymize(data, to_glove_config(config)));
  }
};

class IncrementalStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override {
    return kStrategyIncremental;
  }
  std::string_view description() const noexcept override {
    return "incremental update: newcomers join a published release without "
           "regrouping existing users";
  }
  StrategyOutcome run(const cdr::FingerprintDataset& data,
                      const RunConfig& config) const override {
    static const cdr::FingerprintDataset kEmptyPublished;
    const cdr::FingerprintDataset& published =
        config.incremental.published != nullptr ? *config.incremental.published
                                                : kEmptyPublished;
    core::UpdateResult result =
        core::anonymize_update(published, data, to_glove_config(config));

    StrategyOutcome outcome;
    outcome.counters = from_glove_stats(result.stats.glove);
    outcome.counters.input_users = published.total_users() + data.total_users();
    outcome.counters.input_samples =
        published.total_samples() + data.total_samples();
    outcome.init_seconds = result.stats.glove.init_seconds;
    outcome.merge_seconds = result.stats.glove.merge_seconds;
    outcome.extra_metrics = {
        {"new_users", static_cast<double>(result.stats.new_users)},
        {"joined_existing_groups",
         static_cast<double>(result.stats.joined_existing_groups)},
        {"formed_new_groups",
         static_cast<double>(result.stats.formed_new_groups)}};
    outcome.anonymized = std::move(result.anonymized);
    outcome.counters.output_groups = outcome.anonymized.size();
    outcome.counters.output_samples = outcome.anonymized.total_samples();
    return outcome;
  }
};

class ShardedStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return kStrategySharded; }
  std::string_view description() const noexcept override {
    return "spatially-sharded parallel GLOVE: tiled partition, per-shard "
           "exact pipeline, deterministic cross-shard reconciliation";
  }
  std::optional<Error> validate_config(const RunConfig& config) const override {
    if (config.sharded.tile_size_m < 0.0) {
      return Error{ErrorCode::kInvalidConfig,
                   "sharded.tile_size_m must be positive (or 0 for an "
                   "adaptive, density-derived tile size)"};
    }
    if (config.sharded.halo_m < 0.0) {
      return Error{ErrorCode::kInvalidConfig,
                   "sharded.halo_m must be non-negative"};
    }
    if (config.sharded.max_shard_users < config.k) {
      return Error{ErrorCode::kInvalidConfig,
                   "sharded.max_shard_users must be at least k"};
    }
    // The run spawns this many job threads; an absurd value is a config
    // mistake (e.g. an integer wrap), not a parallelism request.
    if (config.sharded.workers > 4'096) {
      return Error{ErrorCode::kInvalidConfig,
                   "sharded.workers must be at most 4096 (0 = hardware "
                   "concurrency)"};
    }
    return std::nullopt;
  }
  bool supports_streaming() const noexcept override { return true; }

  StrategyOutcome run_streaming(DatasetSource& source, const RunConfig& config,
                                DatasetSink& sink) const override {
    // The sharded pipeline is the first true streaming consumer: tile
    // histogram and border split from a bounds-only first pass, shard and
    // reconcile batches materialized on later passes, groups pushed to the
    // sink as batches finish.  In-memory datasets arrive here too, through
    // the Engine's MemorySource.
    sink.begin(source.name() + "-sharded-k" + std::to_string(config.k));
    shard::StreamShardedResult result = shard::anonymize_sharded_stream(
        source, to_shard_config(config),
        [&sink](cdr::Fingerprint&& group) { sink.write(std::move(group)); });
    sink.finish();
    StrategyOutcome outcome =
        outcome_from_stats(result.stats, std::move(result.shard_timings));
    outcome.exec_workers = result.exec_workers;
    outcome.pass_fingerprints = std::move(result.pass_fingerprints);
    return outcome;
  }

 private:
  static shard::ShardConfig to_shard_config(const RunConfig& config) {
    shard::ShardConfig sharded;
    sharded.glove = to_glove_config(config);
    sharded.tile_size_m = config.sharded.tile_size_m;
    sharded.max_shard_users = config.sharded.max_shard_users;
    sharded.workers = config.sharded.workers;
    sharded.halo_m = config.sharded.halo_m;
    return sharded;
  }

  static StrategyOutcome outcome_from_stats(
      const shard::ShardedStats& stats,
      std::vector<shard::ShardTiming> timings) {
    StrategyOutcome outcome;
    outcome.counters = from_glove_stats(stats.glove);
    outcome.init_seconds = stats.glove.init_seconds;
    outcome.merge_seconds = stats.glove.merge_seconds;
    outcome.extra_metrics = {
        {"tiles", static_cast<double>(stats.tiles)},
        {"shards", static_cast<double>(stats.shards)},
        {"deferred_fingerprints",
         static_cast<double>(stats.deferred_fingerprints)},
        {"reconciled_groups", static_cast<double>(stats.reconciled_groups)},
        {"absorbed_leftovers", static_cast<double>(stats.absorbed_leftovers)},
        {"tile_size_m", stats.tile_size_m},
        {"plan_seconds", stats.plan_seconds},
        {"reconcile_seconds", stats.reconcile_seconds}};
    outcome.shard_timings = std::move(timings);
    return outcome;
  }
};

class W4MStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return kStrategyW4M; }
  std::string_view description() const noexcept override {
    return "W4M-LC baseline: cluster-and-perturb (fabricates samples; for "
           "comparison, not PPDP-truthful)";
  }
  std::optional<Error> validate_config(const RunConfig& config) const override {
    if (config.w4m.delta_m <= 0.0) {
      return Error{ErrorCode::kInvalidConfig, "w4m.delta_m must be positive"};
    }
    if (config.w4m.trash_fraction < 0.0 || config.w4m.trash_fraction >= 1.0) {
      return Error{ErrorCode::kInvalidConfig,
                   "w4m.trash_fraction must be in [0, 1)"};
    }
    if (config.w4m.chunk_size < config.k) {
      return Error{ErrorCode::kInvalidConfig,
                   "w4m.chunk_size must be at least k"};
    }
    return std::nullopt;
  }
  StrategyOutcome run(const cdr::FingerprintDataset& data,
                      const RunConfig& config) const override {
    baseline::W4MConfig w4m;
    w4m.k = config.k;
    w4m.delta_m = config.w4m.delta_m;
    w4m.trash_fraction = config.w4m.trash_fraction;
    w4m.chunk_size = config.w4m.chunk_size;
    w4m.match_tolerance_min = config.w4m.match_tolerance_min;
    baseline::W4MResult result = baseline::anonymize_w4m(data, w4m);

    StrategyOutcome outcome;
    outcome.counters.input_users = result.stats.input_users;
    outcome.counters.input_samples = result.stats.input_samples;
    outcome.counters.deleted_samples = result.stats.deleted_samples;
    outcome.counters.created_samples = result.stats.created_samples;
    outcome.counters.discarded_fingerprints =
        result.stats.discarded_fingerprints;
    outcome.extra_metrics = {
        {"clusters", static_cast<double>(result.stats.clusters)},
        {"mean_position_error_m", result.stats.mean_position_error_m},
        {"mean_time_error_min", result.stats.mean_time_error_min}};
    outcome.anonymized = std::move(result.anonymized);
    outcome.counters.output_groups = outcome.anonymized.size();
    outcome.counters.output_samples = outcome.anonymized.total_samples();
    return outcome;
  }
};

}  // namespace

void register_builtin_strategies(Engine& engine) {
  engine.register_strategy(std::make_unique<FullStrategy>());
  engine.register_strategy(std::make_unique<ShardedStrategy>());
  engine.register_strategy(std::make_unique<IncrementalStrategy>());
  engine.register_strategy(std::make_unique<W4MStrategy>());
}

}  // namespace glove::api
