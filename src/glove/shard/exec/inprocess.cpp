#include "glove/shard/exec/inprocess.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"
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
                                     std::size_t workers,
                                     const cdr::FingerprintDataset* resident)
    : glove_{glove}, resident_{resident}, scheduler_{workers} {}

std::vector<ShardResult> InProcessExecutor::run_batch(
    std::vector<ShardJob> jobs, const ShardResultFn& on_result,
    const util::RunHooks& hooks) {
  const auto members_of = [&](const ShardJob& job) {
    return resident_ != nullptr ? job.member_ids->size() : job.inputs.size();
  };
  // Start the largest jobs first (ties in job order): a large job started
  // last would run on alone while the other workers idle.  Which worker
  // runs a job never changes its groups.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return members_of(jobs[lhs]) > members_of(jobs[rhs]);
                   });

  std::vector<ShardResult> results(jobs.size());
  util::RunHooks inner;
  inner.cancel = hooks.cancel;
  util::parallel_for(
      scheduler_, order.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t position = begin; position < end; ++position) {
          hooks.throw_if_cancelled();
          const std::size_t j = order[position];
          ShardJob& job = jobs[j];
          ShardResult& out = results[j];
          const std::size_t members = members_of(job);
          out.timing.shard = job.shard;
          out.timing.input_fingerprints = members;
          GLOVE_SPAN_NAMED(job_span, job.reconcile ? "stream.reconcile.chunk"
                                                   : "stream.shard");
          job_span.arg(job.reconcile ? "chunk" : "shard", job.shard);
          job_span.arg("members", members);
          const auto start = Clock::now();
          if (resident_ != nullptr) {
            job.inputs.reserve(members);
            for (const std::uint32_t id : *job.member_ids) {
              job.inputs.push_back((*resident_)[id]);
            }
          }
          core::GloveResult run = core::anonymize(
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
