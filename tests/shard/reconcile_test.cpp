// The reconciliation plan and its policy tail: the schedule planned from
// bounding geometry and group sizes alone (the streaming pipeline's pass-1
// residue) must reproduce GLOVE over the locality chunks of the sub-k set
// byte for byte,
// and the tail (core::absorb_leftovers) must keep the shared
// original-samples definition of deletion and absorb into the first
// nearest group.

#include "glove/shard/reconcile.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/scalability.hpp"

namespace glove::shard {
namespace {

/// A single-user fingerprint anchored at (x_km, y_km) km — far enough
/// apart per kilometre that the 1 km locality quantization orders anchors
/// exactly by their coordinates.
cdr::Fingerprint user_at(cdr::UserId id, double x_km, double y_km) {
  return cdr::Fingerprint{
      id, {test::cell(x_km * 1'000.0, y_km * 1'000.0, 10.0 * id)}};
}

std::vector<core::FingerprintBounds> bounds_of(
    const std::vector<cdr::Fingerprint>& fps) {
  std::vector<core::FingerprintBounds> bounds;
  bounds.reserve(fps.size());
  for (const cdr::Fingerprint& fp : fps) {
    bounds.push_back(core::fingerprint_bounds(fp));
  }
  return bounds;
}

std::vector<std::uint32_t> sizes_of(const std::vector<cdr::Fingerprint>& fps) {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(fps.size());
  for (const cdr::Fingerprint& fp : fps) sizes.push_back(fp.group_size());
  return sizes;
}

TEST(ReconcilePlan, SplitsPassthroughAndLocalitySortedChunks) {
  // Leftovers in (shard, member) order: a >= k group first, then sub-k
  // singles placed so their locality order reverses their arrival order.
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(cdr::Fingerprint{
      {100u, 101u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 5.0)}});
  leftovers.push_back(user_at(0, 40.0, 0.0));
  leftovers.push_back(user_at(1, 30.0, 0.0));
  leftovers.push_back(user_at(2, 20.0, 0.0));
  leftovers.push_back(user_at(3, 10.0, 0.0));

  const ReconcilePlan plan =
      plan_reconcile(bounds_of(leftovers), sizes_of(leftovers), /*k=*/2,
                     /*max_shard_users=*/2);

  EXPECT_EQ(plan.passthrough, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(plan.subk_count, 4u);
  EXPECT_TRUE(plan.tail.empty());
  // Morton order along one axis is coordinate order: positions 4, 3, 2, 1
  // (10, 20, 30, 40 km), split into chunks of max_shard_users = 2.
  ASSERT_EQ(plan.chunks.size(), 2u);
  EXPECT_EQ(plan.chunks[0], (std::vector<std::uint32_t>{4, 3}));
  EXPECT_EQ(plan.chunks[1], (std::vector<std::uint32_t>{2, 1}));
}

TEST(ReconcilePlan, NeverLeavesATailChunkSmallerThanK) {
  std::vector<cdr::Fingerprint> leftovers;
  for (cdr::UserId u = 0; u < 5; ++u) {
    leftovers.push_back(user_at(u, 10.0 * (u + 1), 0.0));
  }
  const ReconcilePlan plan =
      plan_reconcile(bounds_of(leftovers), sizes_of(leftovers), /*k=*/2,
                     /*max_shard_users=*/4);
  // 5 sub-k members with chunk size 4: a naive split would leave a
  // 1-member tail < k, so the last chunk extends to hold all 5.
  ASSERT_EQ(plan.chunks.size(), 1u);
  EXPECT_EQ(plan.chunks[0].size(), 5u);
}

TEST(ReconcilePlan, FewerThanKSubKLeftoversBecomeTheTail) {
  std::vector<cdr::Fingerprint> leftovers;
  leftovers.push_back(user_at(0, 30.0, 0.0));
  leftovers.push_back(user_at(1, 10.0, 0.0));
  const ReconcilePlan plan =
      plan_reconcile(bounds_of(leftovers), sizes_of(leftovers), /*k=*/3,
                     /*max_shard_users=*/4);
  EXPECT_TRUE(plan.chunks.empty());
  // The tail keeps leftover order, not locality order.
  EXPECT_EQ(plan.tail, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(plan.subk_count, 2u);
}

TEST(ReconcilePlan, MisalignedSpansAreRejected) {
  std::vector<cdr::Fingerprint> leftovers{user_at(0, 1.0, 0.0)};
  const std::vector<std::uint32_t> sizes;  // wrong length
  EXPECT_THROW((void)plan_reconcile(bounds_of(leftovers), sizes, /*k=*/2,
                                    /*max_shard_users=*/4),
               std::invalid_argument);
}

TEST(Reconcile, PlannedChunksReproduceChunkedGloveByteForByte) {
  // Each planned chunk runs as an independent GLOVE job, as run_jobs
  // runs it; concatenated in chunk order their groups must match
  // core::anonymize over each core::locality_chunks chunk of the same
  // sub-k set.
  const cdr::FingerprintDataset data = test::small_synth_dataset(24);
  const std::vector<cdr::Fingerprint> leftovers{data.fingerprints().begin(),
                                                data.fingerprints().end()};
  const core::GloveConfig glove = test::glove_config(2);
  const std::size_t max_shard_users = 5;
  const ReconcilePlan plan = plan_reconcile(
      bounds_of(leftovers), sizes_of(leftovers), glove.k, max_shard_users);
  ASSERT_TRUE(plan.passthrough.empty());
  ASSERT_GE(plan.chunks.size(), 2u);  // several jobs, not one

  /// GLOVE over each chunk of `leftovers`, concatenated in chunk order.
  const auto run_chunks =
      [&](const std::vector<std::vector<std::uint32_t>>& chunks,
          core::GloveStats& stats) {
        std::vector<cdr::Fingerprint> groups;
        for (const std::vector<std::uint32_t>& chunk : chunks) {
          std::vector<cdr::Fingerprint> members;
          for (const std::uint32_t position : chunk) {
            members.push_back(leftovers[position]);
          }
          core::GloveResult part = core::anonymize(
              cdr::FingerprintDataset{std::move(members)}, glove);
          stats.accumulate_costs(part.stats);
          for (cdr::Fingerprint& fp :
               part.anonymized.mutable_fingerprints()) {
            groups.push_back(std::move(fp));
          }
        }
        return test::dataset_to_csv(
            cdr::FingerprintDataset{std::move(groups)});
      };
  const std::vector<std::vector<std::uint32_t>> chunks =
      core::locality_chunks(core::bounds_of(data.fingerprints()),
                            max_shard_users, glove.k);
  core::GloveStats planned;
  core::GloveStats reference;
  EXPECT_EQ(run_chunks(plan.chunks, planned), run_chunks(chunks, reference));
  EXPECT_EQ(planned.merges, reference.merges);
  EXPECT_EQ(planned.deleted_samples, reference.deleted_samples);
}

TEST(ReconcileTail, SuppressCountsOriginalSamplesDeleted) {
  // One sub-k leftover whose samples each represent two original samples
  // (a previously merged pair): suppression must count contributors, the
  // same definition the core greedy loop and the W4M trash bin use.
  std::vector<cdr::Sample> samples{test::cell(0.0, 0.0, 0.0),
                                   test::cell(100.0, 0.0, 5.0)};
  for (cdr::Sample& s : samples) s.contributors = 2;
  cdr::Fingerprint leftover{{7u}, std::move(samples)};
  const std::uint64_t original_samples = leftover.total_contributors();
  ASSERT_EQ(original_samples, 4u);

  std::vector<cdr::Fingerprint> tail;
  tail.push_back(std::move(leftover));
  std::vector<cdr::Fingerprint> groups;
  groups.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(0.0, 100.0, 3.0)}});

  core::GloveConfig glove = test::glove_config(2);
  glove.leftover_policy = core::LeftoverPolicy::kSuppress;
  core::GloveStats stats;
  EXPECT_EQ(core::absorb_leftovers(std::move(tail), groups, glove, stats),
            0u);
  EXPECT_EQ(stats.discarded_fingerprints, 1u);
  EXPECT_EQ(stats.deleted_samples, original_samples);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].group_size(), 2u);  // untouched
}

TEST(ReconcileTail, AbsorbMergesIntoNearestGroup) {
  std::vector<cdr::Fingerprint> tail;
  tail.push_back(user_at(9, 0.1, 0.0));
  std::vector<cdr::Fingerprint> groups;
  groups.push_back(cdr::Fingerprint{
      {1u, 2u}, {test::cell(0.0, 0.0, 0.0), test::cell(100.0, 0.0, 3.0)}});
  groups.push_back(cdr::Fingerprint{
      {3u, 4u},
      {test::cell(90'000.0, 0.0, 0.0), test::cell(90'100.0, 0.0, 3.0)}});

  core::GloveStats stats;
  EXPECT_EQ(core::absorb_leftovers(std::move(tail), groups,
                                   test::glove_config(2), stats),
            1u);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.discarded_fingerprints, 0u);
  ASSERT_EQ(groups.size(), 2u);
  // The co-located group (not the 90 km one) absorbed the leftover.
  EXPECT_EQ(groups[0].group_size(), 3u);
  EXPECT_EQ(groups[1].group_size(), 2u);
}

TEST(ReconcileTail, ExactTieAbsorbsIntoFirstGroup) {
  // A leftover at the origin between two 2-user groups 5 km east and
  // west: both sit at exactly the same stretch, but the rounding of the
  // box ends gives the second group the lower bound, so it is evaluated
  // first.  The tie still goes to the lower index, as a full scan in group
  // order would decide it.
  const cdr::Fingerprint leftover{9u, {test::cell(0.0, 0.0, 0.0)}};
  std::vector<cdr::Fingerprint> groups;
  groups.push_back(test::group_fingerprint(2, 1, {test::cell(5'000.0, 0, 0)}));
  groups.push_back(
      test::group_fingerprint(2, 3, {test::cell(-5'000.0, 0, 0)}));

  ASSERT_EQ(core::fingerprint_stretch(leftover, groups[0]), 0.125);
  ASSERT_EQ(core::fingerprint_stretch(leftover, groups[1]), 0.125);
  const core::FingerprintBounds bounds = core::fingerprint_bounds(leftover);
  ASSERT_LT(
      core::stretch_lower_bound(bounds, core::fingerprint_bounds(groups[1])),
      core::stretch_lower_bound(bounds, core::fingerprint_bounds(groups[0])));

  std::vector<cdr::Fingerprint> tail{leftover};
  core::GloveStats stats;
  EXPECT_EQ(core::absorb_leftovers(std::move(tail), groups,
                                   test::glove_config(2), stats),
            1u);
  EXPECT_EQ(groups[0].group_size(), 3u);
  EXPECT_EQ(groups[1].group_size(), 2u);
}

}  // namespace
}  // namespace glove::shard
