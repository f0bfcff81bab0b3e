#include "glove/core/partial.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "glove/attack/linkage.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/kgap.hpp"
#include "glove/synth/generator.hpp"

namespace glove::core {
namespace {

cdr::Sample cell(double x, double t) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, 100.0, 0.0, 100.0};
  s.tau = cdr::TemporalExtent{t, 1.0};
  return s;
}

cdr::FingerprintDataset commuters() {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 6; ++u) {
    std::vector<cdr::Sample> samples;
    const double home = u * 250.0;
    for (int d = 0; d < 5; ++d) {
      samples.push_back(cell(home, d * 1'440.0 + 60));        // home
      samples.push_back(cell(home, d * 1'440.0 + 1'380));     // home
      samples.push_back(cell(home + 4'000, d * 1'440 + 700)); // work
    }
    // One rare excursion that partial anonymization may withhold.
    samples.push_back(cell(60'000 + u * 5'000.0, 3'000.0 + u * 10));
    fps.emplace_back(u, std::move(samples));
  }
  return cdr::FingerprintDataset{std::move(fps), "commuters"};
}

TEST(ReduceToTopLocations, KeepsOnlyTopTiles) {
  const cdr::FingerprintDataset data = commuters();
  const cdr::FingerprintDataset reduced =
      reduce_to_top_locations(data, 2, 1'000.0);
  ASSERT_EQ(reduced.size(), data.size());
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    // The excursion sample is gone; home and work samples remain.
    EXPECT_EQ(reduced[i].size(), data[i].size() - 1);
  }
}

TEST(ReduceToTopLocations, SingleLocationKeepsDominantTile) {
  const cdr::FingerprintDataset reduced =
      reduce_to_top_locations(commuters(), 1, 1'000.0);
  for (const auto& fp : reduced.fingerprints()) {
    // 10 home samples dominate 5 work samples.
    EXPECT_EQ(fp.size(), 10u);
  }
}

TEST(ReduceToTopLocations, RejectsZeroLocations) {
  EXPECT_THROW((void)reduce_to_top_locations(commuters(), 0, 1'000.0),
               std::invalid_argument);
}

TEST(AnonymizePartial, AchievesKOnTheReducedSurface) {
  PartialConfig config;
  config.k = 2;
  config.top_locations = 2;
  const PartialResult result = anonymize_partial(commuters(), config);
  EXPECT_TRUE(is_k_anonymous(result.glove.anonymized, 2));
  EXPECT_EQ(result.withheld_samples, 6u);  // one excursion per user
}

TEST(AnonymizePartial, CheaperThanFullLength) {
  // Sec. 9's claim that partial anonymization "is less expensive to
  // achieve than the full-length version" shows up structurally: the
  // anonymization operates on a strictly smaller surface (fewer samples,
  // so eq. 10's quadratic per-pair cost shrinks) and withholds the
  // out-of-surface samples instead of paying generalization for them.
  synth::SynthConfig synth_config = synth::civ_like(60, 61);
  synth_config.days = 5.0;
  const cdr::FingerprintDataset data =
      synth::generate_dataset(synth_config);
  // Top-1 surface (the "home only" adversary); with the strongly local
  // mobility of CDR users, larger surfaces can already cover everything.
  PartialConfig config;
  config.top_locations = 1;
  const PartialResult partial = anonymize_partial(data, config);
  EXPECT_GT(partial.withheld_samples, 0u);
  EXPECT_LT(partial.glove.stats.input_samples, data.total_samples());
  EXPECT_TRUE(is_k_anonymous(partial.glove.anonymized, config.k));
  // Accounting consistency: published surface + withheld = original.
  EXPECT_EQ(partial.glove.stats.input_samples + partial.withheld_samples,
            data.total_samples());
}

TEST(AnonymizePartial, DefeatsTopLocationAttackWithinSurface) {
  // Against the assumed adversary (top-L locations), the partial output
  // must provide anonymity sets of >= k.
  synth::SynthConfig synth_config = synth::civ_like(50, 63);
  synth_config.days = 4.0;
  const cdr::FingerprintDataset data =
      synth::generate_dataset(synth_config);
  PartialConfig config;
  config.k = 2;
  config.top_locations = 3;
  const PartialResult result = anonymize_partial(data, config);

  attack::TopLocationsAttack attack_model;
  attack_model.top_n = 3;
  attack_model.tile_m = config.tile_m;
  const attack::AttackReport report =
      attack_model.run(data, result.glove.anonymized);
  EXPECT_EQ(report.below_k[0], 0u);
}

}  // namespace
}  // namespace glove::core
