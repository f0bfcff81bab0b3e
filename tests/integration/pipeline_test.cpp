// End-to-end pipeline tests: synthetic CDR -> fingerprints -> analysis ->
// GLOVE -> published dataset -> file round trip, exercising the same flow
// as the paper's evaluation (and the examples).

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/temp_dir.hpp"
#include "glove/analysis/anonymizability.hpp"
#include "glove/analysis/descriptors.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/generalize.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/synth/generator.hpp"

namespace glove {
namespace {

cdr::FingerprintDataset make_data(std::size_t users = 60,
                                  std::uint64_t seed = 77) {
  synth::SynthConfig config = synth::civ_like(users, seed);
  config.days = 3.0;
  return synth::generate_dataset(config);
}

TEST(Pipeline, RawDatasetHasNoAnonymousUser) {
  // Fig. 3a's headline: no user is 2-anonymous in the original data.
  const cdr::FingerprintDataset data = make_data();
  const auto gaps = core::k_gap_values(data, 2);
  std::size_t anonymous = 0;
  for (const double g : gaps) {
    if (g == 0.0) ++anonymous;
  }
  // Synthetic CDR reproduces high uniqueness: essentially nobody at gap 0.
  EXPECT_LE(anonymous, gaps.size() / 50);
}

TEST(Pipeline, UniformGeneralizationFailsWhereGloveSucceeds) {
  // Fig. 4 vs Fig. 7: even coarse tiles leave most users unique, while
  // GLOVE anonymizes everyone by construction.
  const cdr::FingerprintDataset data = make_data();
  const auto coarse =
      core::generalize_dataset(data, {5'000.0, 120.0});
  const auto gaps = core::k_gap_values(coarse, 2);
  std::size_t still_unique = 0;
  for (const double g : gaps) {
    if (g > 0.0) ++still_unique;
  }
  EXPECT_GT(still_unique, gaps.size() / 2);

  const core::GloveResult glove = core::anonymize(data, {});
  EXPECT_TRUE(core::is_k_anonymous(glove.anonymized, 2));
}

TEST(Pipeline, GloveAccuracyBeatsUniformGeneralizationAtSamePrivacy) {
  // The paper's central utility claim: at full 2-anonymity, GLOVE's samples
  // stay far more accurate than the 20 km / 8 h tiles legacy generalization
  // would need (and which still fails to anonymize).
  const cdr::FingerprintDataset data = make_data();
  const core::GloveResult glove = core::anonymize(data, {});
  const auto obs = core::measure_accuracy(glove.anonymized);
  const auto summary = core::summarize_accuracy(obs);
  EXPECT_LT(summary.median_position_m, 20'000.0);
  EXPECT_LT(summary.median_time_min, 480.0);
}

TEST(Pipeline, AnonymizedDatasetSurvivesFileRoundTrip) {
  const cdr::FingerprintDataset data = make_data(40);
  const core::GloveResult glove = core::anonymize(data, {});

  std::ostringstream out;
  cdr::write_dataset_csv(out, glove.anonymized);
  const cdr::FingerprintDataset back = test::read_dataset_text(out.str());

  ASSERT_EQ(back.size(), glove.anonymized.size());
  EXPECT_EQ(back.total_users(), glove.anonymized.total_users());
  EXPECT_EQ(back.total_samples(), glove.anonymized.total_samples());
  EXPECT_TRUE(core::is_k_anonymous(back, 2));
}

TEST(Pipeline, EventsToFingerprintsToLatLonRoundTrip) {
  synth::SynthConfig config = synth::civ_like(20, 3);
  config.days = 2.0;
  const auto planar = synth::generate_events(config);
  const auto geo_events = synth::to_latlon_events(planar, config);

  // Feed the lat/lon CDR through the geographic builder, as a data-owner
  // integrating real traces would.
  cdr::BuilderConfig builder;
  builder.projection_origin = config.region_anchor;
  const cdr::FingerprintDataset data =
      cdr::build_fingerprints(geo_events, builder);
  EXPECT_EQ(data.size(), 20u);
  EXPECT_GT(data.total_samples(), 0u);
}

TEST(Pipeline, AnalysisRunsOnAnonymizedOutput) {
  // The anonymizability toolkit must accept generalized (merged) samples:
  // k-gap of a GLOVE output is ~0 for the merged groups' fingerprints.
  const cdr::FingerprintDataset data = make_data(40);
  const core::GloveResult glove = core::anonymize(data, {});
  const auto descriptor = analysis::describe(glove.anonymized);
  EXPECT_EQ(descriptor.users, data.total_users());
  EXPECT_LE(descriptor.fingerprints, data.size() / 2);
}

TEST(Pipeline, ScreeningFilterMatchesPaperSetup) {
  // Sec. 3: d4d-civ screening keeps users with >= 1 sample/day.
  synth::SynthConfig config = synth::civ_like(50, 9);
  config.days = 3.0;
  config.activity.min_events_per_day = 0.0;        // disable the floor
  config.activity.median_events_per_day = 1.2;     // many low-activity users
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const cdr::FingerprintDataset screened =
      cdr::filter_min_activity(data, 1.0, config.days);
  EXPECT_LT(screened.size(), data.size());
  for (const auto& fp : screened.fingerprints()) {
    EXPECT_GE(static_cast<double>(fp.size()) / config.days, 1.0);
  }
}

TEST(Pipeline, TimespanCutsNestMonotonically) {
  // Fig. 10 mechanics: a 1-day cut is a subset of the 2-day cut, etc.
  const cdr::FingerprintDataset data = make_data(30);
  const auto one_day = cdr::cut_time_window(data, 0.0, 1'440.0);
  const auto two_days = cdr::cut_time_window(data, 0.0, 2 * 1'440.0);
  EXPECT_LE(one_day.total_samples(), two_days.total_samples());
  EXPECT_LE(one_day.size(), two_days.size());
}

}  // namespace
}  // namespace glove
