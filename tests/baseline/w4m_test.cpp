#include "glove/baseline/w4m.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>

#include "glove/synth/generator.hpp"

namespace glove::baseline {
namespace {

cdr::Sample cell(double x, double y, double t) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, 100.0, y, 100.0};
  s.tau = cdr::TemporalExtent{t, 1.0};
  return s;
}

cdr::Fingerprint line_user(cdr::UserId id, double offset_m,
                           double offset_min) {
  // A user moving east, one sample every ~2 hours.
  std::vector<cdr::Sample> samples;
  for (int i = 0; i < 6; ++i) {
    samples.push_back(
        cell(offset_m + i * 1'000.0, offset_m, offset_min + i * 120.0));
  }
  return cdr::Fingerprint{id, std::move(samples)};
}

cdr::FingerprintDataset parallel_users(std::size_t n, double spacing_m) {
  std::vector<cdr::Fingerprint> fps;
  for (std::size_t i = 0; i < n; ++i) {
    fps.push_back(line_user(static_cast<cdr::UserId>(i),
                            static_cast<double>(i) * spacing_m,
                            static_cast<double>(i) * 7.0));
  }
  return cdr::FingerprintDataset{std::move(fps), "parallel"};
}

TEST(LinearStDistance, ZeroForIdenticalTrajectories) {
  const cdr::Fingerprint a = line_user(0, 0.0, 0.0);
  EXPECT_NEAR(linear_st_distance(a, a), 0.0, 1e-9);
}

TEST(LinearStDistance, ProportionalToSpatialOffset) {
  const cdr::Fingerprint a = line_user(0, 0.0, 0.0);
  const cdr::Fingerprint near = line_user(1, 500.0, 0.0);
  const cdr::Fingerprint far = line_user(2, 5'000.0, 0.0);
  const double d_near = linear_st_distance(a, near);
  const double d_far = linear_st_distance(a, far);
  EXPECT_GT(d_far, d_near);
  // Parallel trajectories offset diagonally by d keep distance sqrt(2)*d.
  EXPECT_NEAR(d_near, 500.0 * std::sqrt(2.0), 50.0);
}

TEST(LinearStDistance, InfiniteWithoutCoexistence) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(0, 0, 100)}};
  const cdr::Fingerprint b{1u, {cell(0, 0, 500), cell(0, 0, 600)}};
  EXPECT_TRUE(std::isinf(linear_st_distance(a, b)));
}

TEST(LinearStDistance, PenalizesShortOverlap) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(0, 0, 1'000)}};
  const cdr::Fingerprint full{1u, {cell(500, 0, 0), cell(500, 0, 1'000)}};
  const cdr::Fingerprint partial{2u, {cell(500, 0, 900), cell(500, 0, 2'000)}};
  EXPECT_GT(linear_st_distance(a, partial), linear_st_distance(a, full));
}

TEST(W4M, EveryClusterHasAtLeastKMembers) {
  const W4MResult result = anonymize_w4m(parallel_users(11, 300.0), 2, {});
  for (const auto& fp : result.anonymized.fingerprints()) {
    EXPECT_GE(fp.group_size(), 2u);
  }
}

TEST(W4M, HigherKGivesBiggerClusters) {
  const W4MResult result = anonymize_w4m(parallel_users(12, 300.0), 4, {});
  for (const auto& fp : result.anonymized.fingerprints()) {
    EXPECT_GE(fp.group_size(), 4u);
  }
}

TEST(W4M, PublishedSamplesCarryDeltaExtent) {
  W4MConfig config;
  config.delta_m = 2'000.0;
  const W4MResult result = anonymize_w4m(parallel_users(8, 300.0), 2, config);
  for (const auto& fp : result.anonymized.fingerprints()) {
    for (const auto& s : fp.samples()) {
      EXPECT_DOUBLE_EQ(s.sigma.dx, 2'000.0);
      EXPECT_DOUBLE_EQ(s.sigma.dy, 2'000.0);
    }
  }
}

TEST(W4M, CreatesSyntheticSamplesOnMisalignedUsers) {
  // Members with fewer samples than the cluster pivot leave pivot slots
  // empty, forcing interpolation (fabricated points).
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 6; ++u) {
    std::vector<cdr::Sample> samples;
    const int count = (u % 2 == 0) ? 8 : 3;  // alternating dense/sparse
    for (int i = 0; i < count; ++i) {
      samples.push_back(cell(u * 200.0 + i * 1'000.0, u * 200.0,
                             i * 720.0 / count * 8.0 + u * 5.0));
    }
    fps.emplace_back(u, std::move(samples));
  }
  const W4MResult result =
      anonymize_w4m(cdr::FingerprintDataset{std::move(fps)}, 2, {});
  EXPECT_GT(result.stats.created_samples, 0u);
}

TEST(W4M, NoCreationForPerfectlyAlignedUsers) {
  // Identical timestamps: every published slot matches an original sample.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 4; ++u) {
    fps.push_back(line_user(u, u * 100.0, 0.0));  // same time offsets
  }
  const W4MResult result =
      anonymize_w4m(cdr::FingerprintDataset{std::move(fps)}, 2, {});
  EXPECT_EQ(result.stats.created_samples, 0u);
  EXPECT_EQ(result.stats.deleted_samples, 0u);
}

TEST(W4M, TrashBinDiscardsOutliers) {
  // 9 clusterable users + 1 user on the other side of the country.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 9; ++u) {
    fps.push_back(line_user(u, u * 150.0, u * 3.0));
  }
  fps.push_back(line_user(9, 400'000.0, 0.0));
  W4MConfig config;
  config.trash_fraction = 0.2;
  const W4MResult result =
      anonymize_w4m(cdr::FingerprintDataset{std::move(fps)}, 2, config);
  EXPECT_GE(result.stats.discarded_fingerprints, 1u);
}

TEST(W4M, TrashedFingerprintCountsOriginalSamplesDeleted) {
  // Deletion accounting is in *original* samples (summed contributors),
  // the one definition shared with the GLOVE suppression paths — not raw
  // (possibly already-merged) sample counts.  The outlier here is a
  // previously merged pair whose samples each represent two originals; it
  // coexists with nobody, so its distance to every cluster is infinite
  // and it is deterministically discarded.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 4; ++u) {
    fps.push_back(line_user(u, u * 150.0, u * 3.0));
  }
  cdr::Fingerprint outlier = line_user(9, 0.0, 100'000.0);
  std::vector<cdr::Sample> merged_samples{outlier.samples().begin(),
                                          outlier.samples().end()};
  for (cdr::Sample& s : merged_samples) s.contributors = 2;
  cdr::Fingerprint merged{{9u, 10u}, std::move(merged_samples)};
  const std::uint64_t original_samples = merged.total_contributors();
  ASSERT_EQ(original_samples, 2 * merged.size());
  fps.push_back(std::move(merged));

  const W4MResult result =
      anonymize_w4m(cdr::FingerprintDataset{std::move(fps)}, 2, {});
  EXPECT_EQ(result.stats.discarded_fingerprints, 2u);  // the merged pair
  EXPECT_EQ(result.stats.deleted_samples, original_samples);
}

TEST(W4M, StatsErrorVectorsMatchMeans) {
  const W4MResult result = anonymize_w4m(parallel_users(8, 250.0), 2, {});
  ASSERT_FALSE(result.stats.position_errors_m.empty());
  double sum = 0.0;
  for (const double e : result.stats.position_errors_m) sum += e;
  EXPECT_NEAR(
      sum / static_cast<double>(result.stats.position_errors_m.size()),
              result.stats.mean_position_error_m, 1e-9);
}

TEST(W4M, RejectsInvalidConfig) {
  const auto data = parallel_users(6, 100.0);
  EXPECT_THROW((void)anonymize_w4m(data, 1, {}), std::invalid_argument);
  W4MConfig config;
  config.chunk_size = 1;
  EXPECT_THROW((void)anonymize_w4m(data, 2, config), std::invalid_argument);
}

TEST(W4M, NonFiniteDeltaIsRefusedAsConfigNotBlamedOnTheData) {
  // anonymize_w4m checks its own config before reading the data: a NaN
  // delta used to run until a generalized sample failed as
  // util::DatasetError ("generalizing users 0+14: x must be finite").
  const cdr::FingerprintDataset data =
      synth::generate_dataset(synth::civ_like(400, 7));
  W4MConfig config;
  config.delta_m = std::numeric_limits<double>::quiet_NaN();
  try {
    (void)anonymize_w4m(data, 2, config);
    FAIL() << "a NaN delta ran";
  } catch (const util::DatasetError& e) {
    FAIL() << "blamed on the data: " << e.what();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "w4m.delta_m must be positive and finite");
  }
}

TEST(W4M, AllUsersAccountedFor) {
  const cdr::FingerprintDataset input = parallel_users(10, 300.0);
  const W4MResult result = anonymize_w4m(input, 2, {});
  std::set<cdr::UserId> published;
  for (const auto& fp : result.anonymized.fingerprints()) {
    published.insert(fp.members().begin(), fp.members().end());
  }
  EXPECT_EQ(published.size() + result.stats.discarded_fingerprints,
            input.total_users());
}

TEST(W4M, WorseThanGloveOnSparseCdr) {
  // The Tab. 2 headline: on sparse heterogeneous CDR, W4M fabricates
  // samples (GLOVE never does) — the qualitative claim this reproduction
  // must uphold.
  synth::SynthConfig config = synth::civ_like(40, 19);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const W4MResult w4m = anonymize_w4m(data, 2, {});
  EXPECT_GT(w4m.stats.created_samples, 0u);
  EXPECT_GT(w4m.stats.mean_time_error_min, 1.0);
}

}  // namespace
}  // namespace glove::baseline
