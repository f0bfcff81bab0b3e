// RunReport: the structured outcome of an Engine run — the anonymized
// dataset plus uniform counters, phase timings, the RunConfig the run
// used, and strategy-specific extra metrics.  Serializable to JSON, its
// one file form (schema locked by a golden test and glove_lint's
// schema-drift rule); the JSON "config" object echoes that RunConfig.

#ifndef GLOVE_API_REPORT_HPP
#define GLOVE_API_REPORT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "glove/api/config.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/shard/jobs.hpp"
#include "glove/stats/json.hpp"

namespace glove::api {

/// Uniform cost counters across strategies (the Tab. 2 rows).  Fields a
/// strategy cannot produce stay zero (e.g. created_samples for GLOVE,
/// merges for W4M).
struct RunCounters {
  std::uint64_t input_users = 0;
  std::uint64_t input_samples = 0;
  std::uint64_t output_groups = 0;
  std::uint64_t output_samples = 0;
  std::uint64_t merges = 0;
  std::uint64_t deleted_samples = 0;
  std::uint64_t created_samples = 0;
  std::uint64_t discarded_fingerprints = 0;
  std::uint64_t stretch_evaluations = 0;
};

struct RunTimings {
  double init_seconds = 0.0;   ///< strategy setup (e.g. stretch matrix)
  double merge_seconds = 0.0;  ///< main loop (greedy merge / clustering)
  double total_seconds = 0.0;  ///< wall clock of Engine::run
};

struct RunReport {
  std::string dataset_name;
  /// The anonymized dataset for dataset-out runs (the legacy Engine
  /// overload).  Streaming runs deliver groups to the DatasetSink instead
  /// and leave this empty.
  cdr::FingerprintDataset anonymized;
  RunCounters counters;
  RunTimings timings;
  /// The configuration the run used, its strategy included.  Its
  /// `incremental.published` is null: the report may outlive that release.
  RunConfig config;
  /// Strategy-specific scalar metrics (e.g. W4M mean errors, incremental
  /// join counts), serialized under "metrics" in declaration order.
  std::vector<std::pair<std::string, double>> extra_metrics;
  /// Per-shard timings (sharded strategy only; empty otherwise).
  /// Serialized as "shards" when non-empty.
  std::vector<shard::ShardTiming> shard_timings;
  /// Threads that ran the shard jobs (sharded strategy only; 0
  /// otherwise).  Serialized as "exec" when non-zero.
  std::uint64_t exec_workers = 0;
  /// Data-plane echo of the run boundary: the source/sink transports
  /// ("memory", "csv-file"), how many fingerprints each pass over the
  /// source streamed (one entry for collect-then-run strategies and for
  /// in-memory sources, which are never re-read; planning + batch passes
  /// for true streams), and the process's peak resident set size when
  /// the run finished (0 when the platform hides it) — together the
  /// evidence that a streaming run stayed out-of-core.
  std::string source_kind;
  std::string sink_kind;
  std::vector<std::uint64_t> pass_fingerprints;
  /// Block accounting of index-capable sources (glovebin files): payload
  /// blocks each pass decoded (aligned with pass_fingerprints; 0 for the
  /// index-only planning pass), the file's total block count, and the
  /// cumulative blocks/bytes mapped.  All zero/empty for sources without
  /// a block index.
  std::vector<std::uint64_t> pass_blocks;
  std::uint64_t file_blocks = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_mapped = 0;
  std::uint64_t peak_rss_bytes = 0;
  /// Deterministic observability counters this run contributed (the
  /// obs::counter_delta across Engine::run), name-sorted and serialized
  /// under "obs".  Only counts/bytes/passes ever land here — wall-clock
  /// quantities stay in the trace file — so the section is byte-stable
  /// for a given input and config.
  std::vector<std::pair<std::string, std::uint64_t>> obs_counters;
};

/// Looks up a strategy-specific metric by name; `fallback` when absent.
[[nodiscard]] double find_metric(const RunReport& report,
                                 std::string_view name,
                                 double fallback = 0.0);

/// Sets metric `name` in extra_metrics, overwriting an existing entry in
/// place (serialization order is first-set).  Drivers stamping run-level
/// context — e.g. glove-serve's epoch number and window bounds — go
/// through this rather than growing the locked top-level schema.
void set_metric(RunReport& report, std::string name, double value);

/// JSON document of everything but the dataset itself (strategy, config,
/// counters, timings, metrics).  Key order is fixed; the schema is locked
/// by tests/api/report_test.cpp.  A disabled suppression echoes
/// "enabled": false with zero thresholds.
[[nodiscard]] stats::Json report_json(const RunReport& report);
[[nodiscard]] std::string to_json(const RunReport& report, int indent = 2);

/// Writes `to_json` to `path`, whatever its extension.  Throws
/// std::runtime_error on I/O failure.
void write_report_file(const std::string& path, const RunReport& report);

}  // namespace glove::api

#endif  // GLOVE_API_REPORT_HPP
