// run_jobs, the one runner of the sharded backend's GLOVE jobs: it returns
// each job's groups in job order whatever order it starts the jobs in,
// whether the jobs copy their members from a resident dataset or move them
// out of a materialized store, and its jobs hand large GLOVE refinement
// batches on to the shared thread pool.

#include "glove/shard/jobs.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard {
namespace {

/// The groups a direct core::anonymize call makes of `ids` of `data`.
std::string expected_groups(const cdr::FingerprintDataset& data,
                            const std::vector<std::uint32_t>& ids,
                            const core::GloveConfig& glove) {
  std::vector<cdr::Fingerprint> inputs;
  for (const std::uint32_t id : ids) inputs.push_back(data[id]);
  cdr::FingerprintDataset out =
      core::anonymize(cdr::FingerprintDataset{std::move(inputs)}, glove)
          .anonymized;
  out.set_name("jobs");
  return test::dataset_to_csv(out);
}

std::string groups_csv(std::vector<cdr::Fingerprint> groups) {
  return test::dataset_to_csv(
      cdr::FingerprintDataset{std::move(groups), "jobs"});
}

std::vector<ShardJob> jobs_of(
    const std::vector<std::vector<std::uint32_t>>& slices) {
  std::vector<ShardJob> jobs;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    jobs.push_back({s, false, slices[s]});
  }
  return jobs;
}

TEST(ShardJobs, ResultsKeepJobOrderWhateverTheStartOrder) {
  // run_jobs starts the largest jobs first, and each job takes its
  // members itself as it starts.  Neither may change a job's groups or
  // the slot its result lands in, whichever member function serves them.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  core::GloveConfig glove;
  glove.k = 2;
  // Slices of rising size, so largest-first starts them in reverse.
  std::vector<std::vector<std::uint32_t>> slices;
  std::uint32_t next = 0;
  for (const std::uint32_t size : {4u, 8u, 12u, 16u}) {
    std::vector<std::uint32_t>& ids = slices.emplace_back();
    for (std::uint32_t i = 0; i < size; ++i) ids.push_back(next++);
  }

  // A materialized store keeps each member at a slot of its own (here
  // in reverse, so slot and id differ); each is moved out exactly once.
  std::vector<cdr::Fingerprint> store(next);
  for (std::uint32_t id = 0; id < next; ++id) {
    store[next - 1 - id] = data[id];
  }
  std::vector<int> taken(next, 0);
  const MemberFn move_from_store = [&](std::uint32_t id) {
    ++taken[id];
    return std::move(store[next - 1 - id]);
  };
  const MemberFn copy_from_resident = [&](std::uint32_t id) {
    return data[id];
  };

  for (const bool resident : {true, false}) {
    util::ThreadPool pool{2};
    const MemberFn& member = resident ? copy_from_resident : move_from_store;
    std::vector<ShardResult> results =
        run_jobs(pool, jobs_of(slices), member, glove);
    ASSERT_EQ(results.size(), slices.size());
    for (std::size_t s = 0; s < slices.size(); ++s) {
      EXPECT_EQ(results[s].timing.shard, s);
      EXPECT_EQ(results[s].timing.input_fingerprints, slices[s].size());
      EXPECT_EQ(results[s].timing.output_groups, results[s].groups.size());
      EXPECT_EQ(groups_csv(std::move(results[s].groups)),
                expected_groups(data, slices[s], glove))
          << "job " << s << (resident ? " (resident)" : " (store)");
    }
  }
  for (std::uint32_t id = 0; id < next; ++id) {
    EXPECT_EQ(taken[id], 1) << "member " << id;
  }
}

TEST(ShardJobs, JobsRefineLargeBatchesOnTheSharedPool) {
  // A job's GLOVE run is a task of the job pool, and it hands rescan
  // batches whose work reaches 32,768 on to the shared pool.  In dense
  // slices every box bound is 0, so every node's key starts at 0 and the
  // first rescan batches grow to 32 keys.  A batch's work is its owners'
  // candidates times their samples, so the batch of a slice's nodes 32-63
  // counts (32 + ... + 63) * 48 = 72,960 and runs on the shared pool.
  // The groups must still be those of a direct core::anonymize call on
  // each slice.
  const cdr::FingerprintDataset data = test::dense_dataset(160, 48, 5);
  core::GloveConfig glove;
  glove.k = 2;
  std::vector<std::vector<std::uint32_t>> slices(2);
  for (std::uint32_t id = 0; id < data.size(); ++id) {
    slices[id % 2].push_back(id);
  }
  const MemberFn copy = [&](std::uint32_t id) { return data[id]; };
  util::ThreadPool pool{2};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  std::vector<ShardResult> results =
      run_jobs(pool, jobs_of(slices), copy, glove);
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  EXPECT_GT(after.counter_value("core.heap.pool_batches") -
                before.counter_value("core.heap.pool_batches"),
            0u);
  ASSERT_EQ(results.size(), slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    EXPECT_EQ(groups_csv(std::move(results[s].groups)),
              expected_groups(data, slices[s], glove))
        << "job " << s;
  }
}

}  // namespace
}  // namespace glove::shard
