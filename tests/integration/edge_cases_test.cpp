// Edge cases and failure injection across modules: degenerate datasets,
// extreme configurations, malformed input files, and robustness of the
// pipeline against inputs a production deployment would eventually see.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/fixtures.hpp"
#include "common/temp_dir.hpp"
#include "glove/baseline/w4m.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/core/merge.hpp"
#include "glove/synth/generator.hpp"

namespace glove {
namespace {

using test::cell;

TEST(EdgeCases, AllIdenticalFingerprintsMergeForFree) {
  std::vector<cdr::Fingerprint> fps;
  const std::vector<cdr::Sample> samples{cell(0, 0, 10), cell(500, 0, 700)};
  for (cdr::UserId u = 0; u < 8; ++u) fps.emplace_back(u, samples);
  const cdr::FingerprintDataset data{std::move(fps)};

  // k-gap is zero everywhere...
  for (const double g : core::k_gap_values(data, 4)) {
    EXPECT_DOUBLE_EQ(g, 0.0);
  }
  // ...and GLOVE preserves the exact geometry.
  const core::GloveResult result = core::anonymize(data, {});
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
  for (const auto& fp : result.anonymized.fingerprints()) {
    ASSERT_EQ(fp.size(), 2u);
    EXPECT_DOUBLE_EQ(fp.samples()[0].sigma.dx, 100.0);
    EXPECT_DOUBLE_EQ(fp.samples()[0].tau.dt, 1.0);
  }
}

TEST(EdgeCases, SingleSampleFingerprints) {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 6; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(u * 150.0, 0, u * 20.0)});
  }
  const core::GloveResult result =
      core::anonymize(cdr::FingerprintDataset{std::move(fps)}, {});
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
  for (const auto& fp : result.anonymized.fingerprints()) {
    EXPECT_EQ(fp.size(), 1u);  // merging singletons yields singletons
  }
}

TEST(EdgeCases, KEqualsDatasetSize) {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 5; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{cell(u * 100.0, 0, u * 5.0)});
  }
  core::GloveConfig config;
  config.k = 5;
  const core::GloveResult result =
      core::anonymize(cdr::FingerprintDataset{std::move(fps)}, config);
  ASSERT_EQ(result.anonymized.size(), 1u);
  EXPECT_EQ(result.anonymized[0].group_size(), 5u);
}

TEST(EdgeCases, PreGroupedInputIsRespected) {
  // Re-anonymizing a dataset that already contains k-sized groups: they
  // are final and must pass through unchanged.
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(std::vector<cdr::UserId>{0u, 1u},
                   std::vector<cdr::Sample>{cell(0, 0, 10)});
  fps.emplace_back(2u, std::vector<cdr::Sample>{cell(100, 0, 20)});
  fps.emplace_back(3u, std::vector<cdr::Sample>{cell(200, 0, 30)});
  const core::GloveResult result =
      core::anonymize(cdr::FingerprintDataset{std::move(fps)}, {});
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
  // The pre-grouped pair survives as its own group.
  bool found_pair = false;
  for (const auto& fp : result.anonymized.fingerprints()) {
    if (fp.group_size() == 2 && fp.members()[0] <= 1u) found_pair = true;
  }
  EXPECT_TRUE(found_pair);
}

TEST(EdgeCases, ZeroWidthSuppressionDeletesEverything) {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 4; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(u * 5'000.0, 0, u * 300.0)});
  }
  core::GloveConfig config;
  config.suppression = core::SuppressionThresholds{50.0, 0.5};  // < original
  const core::GloveResult result =
      core::anonymize(cdr::FingerprintDataset{std::move(fps)}, config);
  // All merged samples exceed the impossible thresholds.
  EXPECT_EQ(result.anonymized.total_samples(), 0u);
  EXPECT_EQ(result.stats.deleted_samples, 4u);
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
}

TEST(EdgeCases, SamplesAtExtremeCoordinates) {
  // Values near the numeric edges must not overflow the stretch math.
  cdr::Sample far_east = cell(1e12, 1e12, 1e9);
  cdr::Sample origin = cell(0, 0, 0);
  const core::SampleStretch d = core::sample_stretch(origin, 1, far_east, 1);
  EXPECT_DOUBLE_EQ(d.total(), 1.0);  // saturated, not inf/nan
  const cdr::Sample m = core::merge_samples(origin, far_east);
  EXPECT_TRUE(std::isfinite(m.sigma.dx));
  EXPECT_TRUE(std::isfinite(m.tau.dt));
}

TEST(EdgeCases, W4MWithKEqualUsers) {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 3; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{cell(u * 100.0, 0, 10),
                                                 cell(u * 100.0, 0, 500)});
  }
  const baseline::W4MResult result = baseline::anonymize_w4m(
      cdr::FingerprintDataset{std::move(fps)}, /*k=*/3);
  ASSERT_EQ(result.anonymized.size(), 1u);
  EXPECT_EQ(result.anonymized[0].group_size(), 3u);
}

TEST(EdgeCases, DatasetCsvWithOnlyComments) {
  const cdr::FingerprintDataset data =
      test::read_dataset_text("# empty trace\n# nothing here\n");
  EXPECT_TRUE(data.empty());
}

TEST(EdgeCases, CdrCsvRejectsPartialRows) {
  for (const char* bad : {"1,2\n", "1,2,3,4,5\n", "1,,3,4\n"}) {
    std::istringstream in{bad};
    EXPECT_THROW((void)cdr::read_cdr_csv(in), std::invalid_argument)
        << "input: " << bad;
  }
}

TEST(EdgeCases, GeneratorWithOneUser) {
  synth::SynthConfig config = synth::civ_like(1, 3);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  EXPECT_LE(data.size(), 1u);  // may be 0 if the user drew silent days
}

TEST(EdgeCases, KGapOnGloveOutputIsZero) {
  // Published groups are k-anonymous: identical fingerprints mean another
  // group at stretch zero is not required — but each group's *own* k-gap
  // relative to the published dataset reflects only inter-group distances.
  synth::SynthConfig config = synth::civ_like(30, 57);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const core::GloveResult result = core::anonymize(data, {});
  // The expanded view (one record per user) has k duplicate records per
  // group, so every record's 2-gap is exactly zero.
  std::vector<cdr::Fingerprint> expanded;
  for (const auto& fp : result.anonymized.fingerprints()) {
    for (const cdr::UserId user : fp.members()) {
      expanded.emplace_back(user,
                            std::vector<cdr::Sample>{fp.samples().begin(),
                                                     fp.samples().end()});
    }
  }
  const auto gaps =
      core::k_gap_values(cdr::FingerprintDataset{std::move(expanded)}, 2);
  for (const double g : gaps) {
    EXPECT_DOUBLE_EQ(g, 0.0);
  }
}

}  // namespace
}  // namespace glove
