// The shard execution seam: the streaming pipeline plans batches and
// materializes (or names) member slices — shards and reconcile chunks
// alike — and a ShardExecutor turns each slice into finalized groups with
// the same core::anonymize run.  Two backends implement it — the in-process
// thread pool the backend always had, and a coordinator/worker process
// pool — and both must produce byte-identical groups for identical jobs,
// so the choice is an operational knob, never a semantic one.

#ifndef GLOVE_SHARD_EXEC_EXECUTOR_HPP
#define GLOVE_SHARD_EXEC_EXECUTOR_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/cdr/fingerprint.hpp"
#include "glove/core/glove.hpp"
#include "glove/shard/config.hpp"
#include "glove/shard/runner.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard::exec {

/// One serialized unit of GLOVE work: shard `shard` of the current plan,
/// or reconcile chunk `shard` of the reconcile plan when `reconcile` is
/// set (traced as stream.reconcile.chunk instead of stream.shard).
/// `member_ids` names the slice (dataset indices in planned member order);
/// `inputs` carries the materialized fingerprints when the caller
/// materializes (executors whose `reads_source()` is true read the slice
/// from the source themselves and receive `inputs` empty).
struct ShardJob {
  std::size_t shard = 0;
  bool reconcile = false;
  const std::vector<std::uint32_t>* member_ids = nullptr;
  std::vector<cdr::Fingerprint> inputs;
};

/// What running one shard produced: the finalized groups plus the cost
/// counters the caller folds via GloveStats::accumulate_costs and the
/// per-shard timing row for the run report.
struct ShardResult {
  ShardTiming timing;
  std::vector<cdr::Fingerprint> groups;
  core::GloveStats stats;
};

/// Per-worker accounting surfaced in the run report's "exec" section
/// (process pool only; the in-process executor reports none).
struct ExecWorkerStats {
  std::uint64_t worker = 0;
  std::uint64_t jobs = 0;
  std::uint64_t fingerprints = 0;
  std::uint64_t groups = 0;
  double busy_seconds = 0.0;
};

/// Called once per completed job, possibly from an executor thread (the
/// caller must make it thread-safe); drives progress reporting.
using ShardResultFn = std::function<void(const ShardResult&)>;

/// Executes batches of shard jobs.  Implementations must return results
/// in job order and must be deterministic: identical jobs yield identical
/// groups regardless of worker count or scheduling.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  /// Stable identifier for the run report ("inprocess", "process").
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Resolved parallelism; the caller sizes the batches of re-read
  /// sources from it.
  [[nodiscard]] virtual std::size_t workers() const noexcept = 0;

  /// True when the executor materializes shard inputs itself, from the
  /// shared source file or the resident dataset; the caller then leaves
  /// ShardJob::inputs empty and skips its own materialization pass.
  [[nodiscard]] virtual bool reads_source() const noexcept = 0;

  /// Runs one batch, invoking `on_result` as each job completes and
  /// returning all results in job order.  Cancellation propagates from
  /// `hooks.cancel` (util::CancelledError); any worker failure surfaces
  /// as a typed exception, never a hang.
  virtual std::vector<ShardResult> run_batch(std::vector<ShardJob> jobs,
                                             const ShardResultFn& on_result,
                                             const util::RunHooks& hooks) = 0;

  /// Cumulative per-worker accounting across all batches so far.
  [[nodiscard]] virtual std::vector<ExecWorkerStats> worker_stats() const {
    return {};
  }
};

/// Human-readable executor name for reports and error messages.
[[nodiscard]] std::string_view executor_kind_name(ExecutorKind kind) noexcept;

/// Builds the executor `config` selects, with `config.workers` threads or
/// processes (0 = the shared-pool default: GLOVE_THREADS when set, else
/// hardware concurrency) capped at `job_count`, the run's total GLOVE job
/// count.  `source_path` is the file backing the stream (nullopt for
/// in-memory sources); the process executor requires it and throws
/// std::invalid_argument otherwise.  `resident` is the stream's
/// materialized dataset, if any: the in-process executor then copies each
/// job's members from it as the job starts.  `total_fingerprints` is the
/// pass-1 count (workers validate their re-reads against it).
[[nodiscard]] std::unique_ptr<ShardExecutor> make_shard_executor(
    const ShardConfig& config, const std::optional<std::string>& source_path,
    const cdr::FingerprintDataset* resident, std::uint64_t total_fingerprints,
    std::size_t job_count);

}  // namespace glove::shard::exec

#endif  // GLOVE_SHARD_EXEC_EXECUTOR_HPP
