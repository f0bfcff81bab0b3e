#include "glove/core/glove.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>

#include "common/fixtures.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/obs/metrics.hpp"

namespace glove::core {
namespace {

using test::cell;
using test::paired_dataset;

std::set<cdr::UserId> all_members(const cdr::FingerprintDataset& data) {
  std::set<cdr::UserId> users;
  for (const auto& fp : data.fingerprints()) {
    users.insert(fp.members().begin(), fp.members().end());
  }
  return users;
}

TEST(Glove, AchievesTwoAnonymity) {
  const GloveResult result = anonymize(paired_dataset(), GloveConfig{});
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 2));
}

TEST(Glove, NoUserIsLostWithMergePolicy) {
  const cdr::FingerprintDataset input = paired_dataset();
  const GloveResult result = anonymize(input, GloveConfig{});
  EXPECT_EQ(all_members(result.anonymized), all_members(input));
  EXPECT_EQ(result.stats.discarded_fingerprints, 0u);
  EXPECT_EQ(result.anonymized.total_users(), input.total_users());
}

TEST(Glove, MergesTheNaturalPairs) {
  // The three constructed pairs are each other's nearest fingerprints, so
  // the greedy pass must merge exactly those (plus the outlier somewhere).
  const GloveResult result = anonymize(paired_dataset(), GloveConfig{});
  std::size_t natural_pairs = 0;
  for (const auto& fp : result.anonymized.fingerprints()) {
    std::set<cdr::UserId> members{fp.members().begin(), fp.members().end()};
    if (members == std::set<cdr::UserId>{0, 1} ||
        members == std::set<cdr::UserId>{2, 3} ||
        members == std::set<cdr::UserId>{4, 5}) {
      ++natural_pairs;
    }
  }
  EXPECT_GE(natural_pairs, 2u);  // the outlier joins one group
}

TEST(Glove, HigherKBuildsBiggerGroups) {
  GloveConfig config;
  config.k = 3;
  const GloveResult result = anonymize(paired_dataset(), config);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 3));
  for (const auto& fp : result.anonymized.fingerprints()) {
    EXPECT_GE(fp.group_size(), 3u);
  }
}

TEST(Glove, OutputGroupCountBounded) {
  const cdr::FingerprintDataset input = paired_dataset();
  GloveConfig config;
  config.k = 2;
  const GloveResult result = anonymize(input, config);
  EXPECT_LE(result.anonymized.size(), input.size() / config.k);
  EXPECT_GE(result.anonymized.size(), 1u);
}

TEST(Glove, EveryOriginalSampleIsCoveredWithoutSuppression) {
  // PPDP truthfulness (P2): no sample may escape its group's fingerprint.
  const cdr::FingerprintDataset input = paired_dataset();
  const GloveResult result = anonymize(input, GloveConfig{});
  EXPECT_EQ(count_uncovered_samples(input, result.anonymized), 0u);
}

TEST(Glove, DeterministicAcrossRuns) {
  const cdr::FingerprintDataset input = paired_dataset();
  const GloveResult a = anonymize(input, GloveConfig{});
  const GloveResult b = anonymize(input, GloveConfig{});
  ASSERT_EQ(a.anonymized.size(), b.anonymized.size());
  for (std::size_t i = 0; i < a.anonymized.size(); ++i) {
    EXPECT_EQ(a.anonymized[i].samples().size(),
              b.anonymized[i].samples().size());
    EXPECT_TRUE(std::equal(a.anonymized[i].members().begin(),
                           a.anonymized[i].members().end(),
                           b.anonymized[i].members().begin(),
                           b.anonymized[i].members().end()));
  }
}

TEST(Glove, LeftoverSuppressPolicyDropsUsers) {
  GloveConfig config;
  config.leftover_policy = LeftoverPolicy::kSuppress;
  const GloveResult result = anonymize(paired_dataset(), config);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 2));
  // 7 users, k=2: one leftover must have been dropped.
  EXPECT_EQ(result.stats.discarded_fingerprints, 1u);
  EXPECT_EQ(result.anonymized.total_users(), 6u);
}

TEST(Glove, SuppressionBoundsExtentsAndCountsDeletions) {
  GloveConfig config;
  config.suppression = SuppressionThresholds{15'000.0, 360.0};
  const GloveResult result = anonymize(paired_dataset(), config);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 2));
  for (const auto& fp : result.anonymized.fingerprints()) {
    for (const auto& s : fp.samples()) {
      EXPECT_LE(s.sigma.accuracy_m(), 15'000.0);
      EXPECT_LE(s.tau.dt, 360.0);
    }
  }
  // The far outlier forces suppression somewhere.
  EXPECT_GT(result.stats.deleted_samples, 0u);
}

TEST(Glove, StatsAreConsistent) {
  const cdr::FingerprintDataset input = paired_dataset();
  const GloveResult result = anonymize(input, GloveConfig{});
  EXPECT_EQ(result.stats.input_users, input.total_users());
  EXPECT_EQ(result.stats.input_samples, input.total_samples());
  EXPECT_EQ(result.stats.output_groups, result.anonymized.size());
  EXPECT_EQ(result.stats.output_samples, result.anonymized.total_samples());
  EXPECT_GE(result.stats.merges, 3u);
  EXPECT_GT(result.stats.stretch_evaluations, 0u);
}

TEST(Glove, HeapHoldsOneKeyPerNodeNotOnePerPair) {
  // Seeding bounds every pair of open inputs but keeps one key per input
  // that has an older one; after that, keys enter only as rescan results
  // or new open nodes (`pushed`).  Each key is popped at most once, so
  // pops stay within (n - 1) + pushed, where a heap of pair entries pops
  // one per pair it ever refines or drops.
  for (const std::uint32_t k : {2u, 5u}) {
    const cdr::FingerprintDataset input = test::small_synth_dataset(60);
    GloveConfig config;
    config.k = k;
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    (void)anonymize(input, config);
    const obs::MetricsSnapshot after = obs::snapshot_metrics();
    const auto moved = [&](const char* name) {
      return after.counter_value(name) - before.counter_value(name);
    };
    const std::uint64_t n = input.size();
    EXPECT_EQ(moved("core.heap.seeded"), n * (n - 1) / 2) << "k=" << k;
    EXPECT_GT(moved("core.heap.refine_batches"), 0u) << "k=" << k;
    EXPECT_LE(moved("core.heap.popped"), (n - 1) + moved("core.heap.pushed"))
        << "k=" << k;
    EXPECT_LE(moved("core.heap.stale_skips"), moved("core.heap.popped"))
        << "k=" << k;
  }
}

TEST(Glove, RejectsInvalidArguments) {
  const cdr::FingerprintDataset input = paired_dataset();
  GloveConfig config;
  config.k = 1;
  EXPECT_THROW((void)anonymize(input, config), std::invalid_argument);
  config.k = 100;
  EXPECT_THROW((void)anonymize(input, config), std::invalid_argument);
}

TEST(Glove, ExactlyKUsersGivesOneGroup) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  fps.emplace_back(1u, std::vector<cdr::Sample>{cell(100, 0, 5)});
  fps.emplace_back(2u, std::vector<cdr::Sample>{cell(0, 100, 9)});
  GloveConfig config;
  config.k = 3;
  const GloveResult result =
      anonymize(cdr::FingerprintDataset{std::move(fps)}, config);
  ASSERT_EQ(result.anonymized.size(), 1u);
  EXPECT_EQ(result.anonymized[0].group_size(), 3u);
}

TEST(IsKAnonymous, DetectsViolations) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(std::vector<cdr::UserId>{0u, 1u},
                   std::vector<cdr::Sample>{cell(0, 0, 0)});
  fps.emplace_back(2u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  const cdr::FingerprintDataset data{std::move(fps)};
  EXPECT_FALSE(is_k_anonymous(data, 2));
  EXPECT_TRUE(is_k_anonymous(data, 1));
}

// --- End-to-end on synthetic data, parameterized over k (Fig. 8 regime).

class GloveSynthetic : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(GloveSynthetic, AnonymizesSyntheticCdr) {
  const std::uint32_t k = GetParam();
  const cdr::FingerprintDataset data =
      test::small_synth_dataset(60, /*days=*/3.0, /*seed=*/5);
  ASSERT_GE(data.size(), 50u);

  GloveConfig glove_config;
  glove_config.k = k;
  const GloveResult result = anonymize(data, glove_config);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, k));
  EXPECT_EQ(result.anonymized.total_users(), data.total_users());
  EXPECT_EQ(count_uncovered_samples(data, result.anonymized), 0u);
}

INSTANTIATE_TEST_SUITE_P(KLevels, GloveSynthetic,
                         ::testing::Values(2u, 3u, 5u));

}  // namespace
}  // namespace glove::core
