#include "glove/api/engine.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/util/mem.hpp"

namespace glove::api {

Engine::Engine() { register_builtin_strategies(*this); }

void Engine::register_strategy(std::unique_ptr<Anonymizer> strategy) {
  std::string key{strategy->name()};
  registry_[std::move(key)] = std::move(strategy);
}

std::vector<std::string> Engine::strategies() const {
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, strategy] : registry_) names.push_back(name);
  return names;
}

const Anonymizer* Engine::find(std::string_view name) const {
  const auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.get();
}

Result<RunReport> Engine::run(DatasetSource& source, DatasetSink& sink,
                              const RunConfig& config) const {
  GLOVE_SPAN_NAMED(run_span, "engine.run");

  // --- Resolve the strategy.
  const Anonymizer* strategy = find(config.strategy);
  if (strategy == nullptr) {
    std::ostringstream message;
    message << "unknown strategy '" << config.strategy << "' (registered:";
    for (const std::string& name : strategies()) message << ' ' << name;
    message << ')';
    return Error{ErrorCode::kUnknownStrategy, message.str()};
  }

  // --- Shared configuration validation; strategies add their own checks.
  // The code that consumes the data refuses it (util::DatasetError).
  {
    GLOVE_SPAN("engine.validate");
    if (config.k < 2) {
      return Error{ErrorCode::kInvalidConfig,
                   "k must be >= 2 (got " + std::to_string(config.k) + ")"};
    }
    if (config.limits.phi_max_sigma_m <= 0.0 ||
        config.limits.phi_max_tau_min <= 0.0) {
      return Error{ErrorCode::kInvalidConfig,
                   "stretch saturation limits must be positive"};
    }
    if (config.suppression &&
        (config.suppression->max_spatial_extent_m <= 0.0 ||
         config.suppression->max_temporal_extent_min <= 0.0)) {
      return Error{ErrorCode::kInvalidConfig,
                   "suppression thresholds must be positive"};
    }
    if (std::optional<Error> error = strategy->validate_config(config)) {
      return *std::move(error);
    }
  }

  // --- Run inside the typed-error boundary.
  const obs::MetricsSnapshot metrics_before = obs::snapshot_metrics();
  const auto start = std::chrono::steady_clock::now();
  try {
    StrategyOutcome outcome;
    {
      GLOVE_SPAN("engine.strategy");
      if (strategy->supports_streaming()) {
        outcome = strategy->run_streaming(source, config, sink);
      } else {
        // Collect-then-run fallback: materialize the source (or borrow the
        // dataset an in-memory source already wraps — no copy), run the
        // dataset-shaped strategy, drain its output into the sink.
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
        outcome = strategy->run(data, config);
        outcome.pass_fingerprints = {data.size()};
        GLOVE_SPAN("engine.drain");
        sink.begin(outcome.anonymized.name());
        for (cdr::Fingerprint& fp :
             outcome.anonymized.mutable_fingerprints()) {
          sink.write(std::move(fp));
        }
        sink.finish();
        outcome.anonymized = cdr::FingerprintDataset{};
      }
    }

    RunReport report;
    report.strategy = config.strategy;
    report.dataset_name = source.name();
    report.counters = outcome.counters;
    report.timings.init_seconds = outcome.init_seconds;
    report.timings.merge_seconds = outcome.merge_seconds;
    report.timings.total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report.config = echo_config(config);
    report.extra_metrics = std::move(outcome.extra_metrics);
    report.shard_timings = std::move(outcome.shard_timings);
    report.exec_workers = outcome.exec_workers;
    report.source_kind = source.kind();
    report.sink_kind = sink.kind();
    report.pass_fingerprints = std::move(outcome.pass_fingerprints);
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
