#include "glove/shard/jobs.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "glove/cdr/dataset.hpp"
#include "glove/obs/span.hpp"
#include "glove/util/parallel.hpp"

namespace glove::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::vector<ShardResult> run_jobs(util::ThreadPool& pool,
                                  const std::vector<ShardJob>& jobs,
                                  const MemberFn& member,
                                  const core::GloveConfig& glove) {
  // Largest first, ties in job order.  Which thread runs a job never
  // changes its groups.
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t lhs, std::size_t rhs) {
                     return jobs[lhs].members.size() >
                            jobs[rhs].members.size();
                   });

  std::vector<ShardResult> results(jobs.size());
  util::parallel_for(
      pool, order.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t position = begin; position < end; ++position) {
          const std::size_t j = order[position];
          const ShardJob& job = jobs[j];
          ShardResult& out = results[j];
          out.timing.shard = job.index;
          out.timing.input_fingerprints = job.members.size();
          GLOVE_SPAN_NAMED(job_span, job.reconcile ? "stream.reconcile.chunk"
                                                   : "stream.shard");
          job_span.arg(job.reconcile ? "chunk" : "shard", job.index);
          job_span.arg("members", job.members.size());
          const auto start = Clock::now();
          std::vector<cdr::Fingerprint> inputs;
          inputs.reserve(job.members.size());
          for (const std::uint32_t id : job.members) {
            inputs.push_back(member(id));
          }
          core::GloveResult run = core::anonymize(
              cdr::FingerprintDataset{std::move(inputs)}, glove);
          out.timing.init_seconds = run.stats.init_seconds;
          out.timing.merge_seconds = run.stats.merge_seconds;
          out.timing.total_seconds = seconds_since(start);
          out.timing.output_groups = run.anonymized.size();
          job_span.arg("groups", run.anonymized.size());
          out.groups = std::move(run.anonymized.mutable_fingerprints());
          out.stats = run.stats;
        }
      },
      /*min_chunk=*/1);
  return results;
}

}  // namespace glove::shard
