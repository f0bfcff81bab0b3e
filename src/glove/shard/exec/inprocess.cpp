#include "glove/shard/exec/inprocess.hpp"

#include <chrono>
#include <utility>

#include "glove/cdr/dataset.hpp"
#include "glove/core/scalability.hpp"
#include "glove/obs/span.hpp"
#include "glove/util/parallel.hpp"

namespace glove::shard::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

InProcessExecutor::InProcessExecutor(const core::GloveConfig& glove,
                                     std::size_t workers)
    : glove_{glove}, scheduler_{workers} {}

std::vector<ShardResult> InProcessExecutor::run_batch(
    std::vector<ShardJob> jobs, const ShardResultFn& on_result,
    const util::RunHooks& hooks) {
  std::vector<ShardResult> results(jobs.size());
  util::RunHooks inner;
  inner.cancel = hooks.cancel;
  util::parallel_for(
      scheduler_, jobs.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t j = begin; j < end; ++j) {
          hooks.throw_if_cancelled();
          ShardJob& job = jobs[j];
          ShardResult& out = results[j];
          const std::size_t members = job.inputs.size();
          out.timing.shard = job.shard;
          out.timing.input_fingerprints = members;
          GLOVE_SPAN_NAMED(job_span, job.reconcile ? "stream.reconcile.chunk"
                                                   : "stream.shard");
          job_span.arg(job.reconcile ? "chunk" : "shard", job.shard);
          job_span.arg("members", members);
          const auto start = Clock::now();
          core::GloveResult run = core::anonymize_pruned(
              cdr::FingerprintDataset{std::move(job.inputs)}, glove_, inner);
          out.timing.init_seconds = run.stats.init_seconds;
          out.timing.merge_seconds = run.stats.merge_seconds;
          out.timing.total_seconds = seconds_since(start);
          out.timing.output_groups = run.anonymized.size();
          job_span.arg("groups", run.anonymized.size());
          out.groups = std::move(run.anonymized.mutable_fingerprints());
          out.stats = run.stats;
          on_result(out);
        }
      },
      /*min_chunk=*/1);
  return results;
}

}  // namespace glove::shard::exec
