// Anonymizer: the common abstract interface every anonymization strategy
// (GLOVE full, incremental updates, the W4M baseline, the sharded
// backend) implements to plug into the Engine.
//
// Two run shapes exist, and a strategy implements one of them.  The
// dataset-in shape (`run`) serves strategies that need the dataset whole;
// strategies that consume a rewindable DatasetSource without materializing
// it set `supports_streaming()` and implement `run_streaming` instead.
// The Engine routes every run of a streaming strategy there — in-memory
// datasets included, through a MemorySource — and collects the source
// first for everything else.  A strategy validates only its configuration;
// a bad dataset is refused by the code that consumes it, which throws
// util::DatasetError (kInvalidDataset) in either shape.

#ifndef GLOVE_API_ANONYMIZER_HPP
#define GLOVE_API_ANONYMIZER_HPP

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "glove/api/config.hpp"
#include "glove/api/error.hpp"
#include "glove/api/report.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::api {

/// What a strategy produces: uniform counters, phase timings, optional
/// strategy-specific metrics, and — for the dataset-in shape — the
/// anonymized dataset itself (streaming runs deliver groups to the sink
/// instead and leave it empty).  The Engine wraps this into the final
/// RunReport.
struct StrategyOutcome {
  cdr::FingerprintDataset anonymized;
  RunCounters counters;
  double init_seconds = 0.0;
  double merge_seconds = 0.0;
  std::vector<std::pair<std::string, double>> extra_metrics;
  /// Per-shard rows for strategies that decompose the run (sharded);
  /// leave empty otherwise.
  std::vector<shard::ShardTiming> shard_timings;
  /// Fingerprints read from the source on each pass over it (streaming
  /// runs; the Engine records {dataset size} on the collect path).
  std::vector<std::uint64_t> pass_fingerprints;
  /// Threads that ran the shard jobs (sharded); 0 for strategies
  /// without shard jobs.
  std::uint64_t exec_workers = 0;
};

class Anonymizer {
 public:
  virtual ~Anonymizer() = default;

  /// Registry key (e.g. "full", "sharded"); also RunConfig::strategy.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// One-line description for --help output and strategy listings.
  [[nodiscard]] virtual std::string_view description() const noexcept = 0;

  /// Strategy-specific *configuration* validation beyond the Engine's
  /// shared checks (k >= 2, positive limits).  Runs before any data is
  /// touched, for streaming and dataset runs alike.  Returns the error to
  /// surface, or nullopt when the configuration is acceptable.
  [[nodiscard]] virtual std::optional<Error> validate_config(
      const RunConfig& config) const {
    (void)config;
    return std::nullopt;
  }

  /// Runs the strategy on a materialized, non-empty dataset.  May throw
  /// util::DatasetError (kInvalidDataset), std::invalid_argument
  /// (kInvalidConfig) or any std::exception (kInternal); the Engine owns
  /// the mapping so strategies can lean on the throwing core.  Only
  /// called when not `supports_streaming()`.
  [[nodiscard]] virtual StrategyOutcome run(
      const cdr::FingerprintDataset& data, const RunConfig& config) const {
    (void)data;
    (void)config;
    throw std::logic_error{"strategy '" + std::string{name()} +
                           "' does not implement dataset runs"};
  }

  /// True when `run_streaming` consumes the source incrementally (bounded
  /// memory) instead of needing the dataset whole.  The Engine collects
  /// the source and calls `run` otherwise.
  [[nodiscard]] virtual bool supports_streaming() const noexcept {
    return false;
  }

  /// Streaming entry: pull fingerprints from `source` (rewinding for
  /// additional passes), push finalized groups to `sink` (begin() with
  /// the output name first, finish() after the last group), and return
  /// the outcome with `anonymized` empty.  Only called when
  /// `supports_streaming()`; the same exception mapping as `run` applies.
  [[nodiscard]] virtual StrategyOutcome run_streaming(
      DatasetSource& source, const RunConfig& config, DatasetSink& sink) const {
    (void)source;
    (void)config;
    (void)sink;
    throw std::logic_error{"strategy '" + std::string{name()} +
                           "' does not implement streaming runs"};
  }
};

}  // namespace glove::api

#endif  // GLOVE_API_ANONYMIZER_HPP
