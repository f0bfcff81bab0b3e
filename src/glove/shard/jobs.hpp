// Shard jobs: the GLOVE runs of the sharded backend.  The streaming
// pipeline plans the units of a batch — shards and reconcile chunks alike —
// and run_jobs turns each GLOVE unit into finalized groups with the same
// core::anonymize run, on a thread pool of the pipeline's own.

#ifndef GLOVE_SHARD_JOBS_HPP
#define GLOVE_SHARD_JOBS_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "glove/cdr/fingerprint.hpp"
#include "glove/core/glove.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard {

/// Wall-clock and size accounting of one shard job (surfaced in the
/// Engine's RunReport as the "shards" array).
struct ShardTiming {
  std::size_t shard = 0;
  std::size_t input_fingerprints = 0;  ///< anonymized inside this shard
  std::size_t deferred = 0;            ///< handed to reconciliation
  std::size_t output_groups = 0;
  double init_seconds = 0.0;
  double merge_seconds = 0.0;
  double total_seconds = 0.0;
};

/// One GLOVE job: shard `index` of the plan, or reconcile chunk `index`
/// when `reconcile` is set (traced as stream.reconcile.chunk instead of
/// stream.shard).  `members` names the slice: dataset indices in planned
/// member order.
struct ShardJob {
  std::size_t index = 0;
  bool reconcile = false;
  std::span<const std::uint32_t> members;
};

/// What one job produced: the finalized groups plus the cost counters the
/// caller folds via GloveStats::accumulate_costs and the timing row for
/// the run report.
struct ShardResult {
  ShardTiming timing;
  std::vector<cdr::Fingerprint> groups;
  core::GloveStats stats;
};

/// Hands out member `id` of the batch.  Called from the job threads, at
/// most once per id, so it may move the fingerprint out of a store.
using MemberFn = std::function<cdr::Fingerprint(std::uint32_t id)>;

/// Runs every job through core::anonymize with `glove` on `pool`, one job
/// per task, the largest jobs first: a large job started last would run on
/// alone while the other threads idle.  Each job takes its members from
/// `member` as it starts, so a job copying from a resident dataset holds
/// its inputs only while it runs.  `pool` must not be
/// util::ThreadPool::shared(): core::anonymize hands rescan batches to
/// the shared pool and waits for them.  Returns the results in job
/// order, whatever order the jobs ran in, and the groups of a job never
/// depend on the pool or the start order.
[[nodiscard]] std::vector<ShardResult> run_jobs(
    util::ThreadPool& pool, const std::vector<ShardJob>& jobs,
    const MemberFn& member, const core::GloveConfig& glove);

}  // namespace glove::shard

#endif  // GLOVE_SHARD_JOBS_HPP
