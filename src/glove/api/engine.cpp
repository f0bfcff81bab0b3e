#include "glove/api/engine.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "glove/baseline/w4m.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/incremental.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/shard/stream.hpp"
#include "glove/util/dataset_error.hpp"
#include "glove/util/mem.hpp"

namespace glove::api {

namespace {

/// The closed strategy set, sorted by name.
constexpr std::array<std::string_view, 4> kStrategies{
    kStrategyFull, kStrategyIncremental, kStrategySharded, kStrategyW4M};

/// Every configuration check, run before any data is read: the strategy
/// name, then each layer's own check of its section — the GLOVE knobs,
/// and the section of the strategy that runs (the other sections are
/// ignored).  A bad dataset is refused by the code that consumes it.
std::optional<Error> check_config(const RunConfig& config) {
  if (std::find(kStrategies.begin(), kStrategies.end(), config.strategy) ==
      kStrategies.end()) {
    std::string message =
        "unknown strategy '" + config.strategy + "' (registered:";
    for (const std::string_view name : kStrategies) {
      message += ' ';
      message += name;
    }
    return Error{ErrorCode::kUnknownStrategy, message + ')'};
  }
  try {
    core::check_config(config);
    if (config.strategy == kStrategySharded) {
      shard::check_config(config.sharded, config.k);
    } else if (config.strategy == kStrategyW4M) {
      baseline::check_config(config.k);
    }
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidConfig, e.what()};
  }
  return std::nullopt;
}

/// Copies a GLOVE run's counters and phase timings into the report.
void record_glove_stats(const core::GloveStats& stats, RunReport& report) {
  RunCounters& counters = report.counters;
  counters.input_users = stats.input_users;
  counters.input_samples = stats.input_samples;
  counters.output_groups = stats.output_groups;
  counters.output_samples = stats.output_samples;
  counters.merges = stats.merges;
  counters.deleted_samples = stats.deleted_samples;
  counters.discarded_fingerprints = stats.discarded_fingerprints;
  counters.stretch_evaluations = stats.stretch_evaluations;
  report.timings.init_seconds = stats.init_seconds;
  report.timings.merge_seconds = stats.merge_seconds;
}

/// `sharded`: a bounds-only first pass plans the shards, later passes
/// materialize the batches, and groups go to the sink as batches finish.
void run_sharded(DatasetSource& source, DatasetSink& sink,
                 const RunConfig& config, RunReport& report) {
  sink.begin(source.name() + "-sharded-k" + std::to_string(config.k));
  shard::StreamShardedResult result = shard::anonymize_sharded_stream(
      source, config, config.sharded,
      [&sink](cdr::Fingerprint&& group) { sink.write(std::move(group)); });
  sink.finish();

  const shard::ShardedStats& stats = result.stats;
  record_glove_stats(stats.glove, report);
  report.extra_metrics = {
      {"tiles", static_cast<double>(stats.tiles)},
      {"shards", static_cast<double>(stats.shards)},
      {"deferred_fingerprints",
       static_cast<double>(stats.deferred_fingerprints)},
      {"reconciled_groups", static_cast<double>(stats.reconciled_groups)},
      {"absorbed_leftovers", static_cast<double>(stats.absorbed_leftovers)},
      {"tile_size_m", stats.tile_size_m},
      {"plan_seconds", stats.plan_seconds},
      {"reconcile_seconds", stats.reconcile_seconds}};
  report.shard_timings = std::move(result.shard_timings);
  report.exec_workers = result.exec_workers;
  report.pass_fingerprints = std::move(result.pass_fingerprints);
}

/// `full`, `incremental` or `w4m-baseline` over the collected, non-empty
/// dataset; returns the release.
cdr::FingerprintDataset run_collected(const cdr::FingerprintDataset& data,
                                      const RunConfig& config,
                                      RunReport& report) {
  if (config.strategy == kStrategyFull) {
    core::GloveResult result = core::anonymize(data, config);
    record_glove_stats(result.stats, report);
    return std::move(result.anonymized);
  }

  RunCounters& counters = report.counters;
  if (config.strategy == kStrategyIncremental) {
    static const cdr::FingerprintDataset kEmptyPublished;
    const cdr::FingerprintDataset& published =
        config.incremental.published != nullptr ? *config.incremental.published
                                                : kEmptyPublished;
    core::UpdateResult result =
        core::anonymize_update(published, data, config);
    record_glove_stats(result.stats.glove, report);
    counters.input_users = published.total_users() + data.total_users();
    counters.input_samples = published.total_samples() + data.total_samples();
    counters.output_groups = result.anonymized.size();
    counters.output_samples = result.anonymized.total_samples();
    report.extra_metrics = {
        {"new_users", static_cast<double>(result.stats.new_users)},
        {"joined_existing_groups",
         static_cast<double>(result.stats.joined_existing_groups)},
        {"formed_new_groups",
         static_cast<double>(result.stats.formed_new_groups)}};
    return std::move(result.anonymized);
  }

  baseline::W4MResult result = baseline::anonymize_w4m(data, config.k);
  counters.input_users = result.stats.input_users;
  counters.input_samples = result.stats.input_samples;
  counters.output_groups = result.anonymized.size();
  counters.output_samples = result.anonymized.total_samples();
  counters.deleted_samples = result.stats.deleted_samples;
  counters.created_samples = result.stats.created_samples;
  counters.discarded_fingerprints = result.stats.discarded_fingerprints;
  report.extra_metrics = {
      {"clusters", static_cast<double>(result.stats.clusters)},
      {"mean_position_error_m", result.stats.mean_position_error_m},
      {"mean_time_error_min", result.stats.mean_time_error_min}};
  return std::move(result.anonymized);
}

}  // namespace

std::vector<std::string> Engine::strategies() const {
  return {kStrategies.begin(), kStrategies.end()};
}

Result<RunReport> Engine::run(DatasetSource& source, DatasetSink& sink,
                              const RunConfig& config) const {
  GLOVE_SPAN_NAMED(run_span, "engine.run");
  {
    GLOVE_SPAN("engine.validate");
    if (std::optional<Error> error = check_config(config)) {
      return *std::move(error);
    }
  }

  // --- Run inside the typed-error boundary.
  const obs::MetricsSnapshot metrics_before = obs::snapshot_metrics();
  const auto start = std::chrono::steady_clock::now();
  try {
    RunReport report;
    {
      GLOVE_SPAN("engine.strategy");
      // A run reads the whole source, whatever was read from it before.
      source.rewind();
      if (config.strategy == kStrategySharded) {
        run_sharded(source, sink, config, report);
      } else {
        // Collect-then-run: materialize the source (or borrow the dataset
        // an in-memory source already wraps — no copy), run the strategy,
        // drain its release into the sink.
        const cdr::FingerprintDataset* inmem = source.materialized();
        cdr::FingerprintDataset collected;
        {
          GLOVE_SPAN("engine.collect");
          if (inmem == nullptr) collected = collect(source);
        }
        const cdr::FingerprintDataset& data = inmem != nullptr ? *inmem
                                                               : collected;
        if (data.empty()) {
          return Error{ErrorCode::kInvalidDataset, "input dataset is empty"};
        }
        cdr::FingerprintDataset release = run_collected(data, config, report);
        report.pass_fingerprints = {data.size()};
        GLOVE_SPAN("engine.drain");
        sink.begin(release.name());
        for (cdr::Fingerprint& fp : release.mutable_fingerprints()) {
          sink.write(std::move(fp));
        }
        sink.finish();
      }
    }

    report.dataset_name = source.name();
    report.timings.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.config = config;
    report.config.incremental.published = nullptr;
    report.source_kind = source.kind();
    report.sink_kind = sink.kind();
    if (const SourceIoStats* io = source.io_stats()) {
      report.pass_blocks = io->pass_blocks;
      report.file_blocks = io->file_blocks;
      report.blocks_read = io->blocks_read;
      report.bytes_mapped = io->bytes_mapped;
    }
    report.peak_rss_bytes = util::peak_rss_bytes();
    report.obs_counters =
        obs::counter_delta(metrics_before, obs::snapshot_metrics());
    return report;
  } catch (const util::DatasetError& e) {
    return Error{ErrorCode::kInvalidDataset, e.what()};
  } catch (const std::invalid_argument& e) {
    return Error{ErrorCode::kInvalidConfig, e.what()};
  } catch (const std::exception& e) {
    return Error{ErrorCode::kInternal, e.what()};
  }
}

Result<RunReport> Engine::run(const cdr::FingerprintDataset& data,
                              const RunConfig& config) const {
  MemorySource source{data};
  MemorySink sink;
  Result<RunReport> result = run(source, sink, config);
  if (!result.ok()) return result;
  RunReport report = std::move(result).value();
  report.anonymized = std::move(sink).take_dataset();
  return report;
}

}  // namespace glove::api
