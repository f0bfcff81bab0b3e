// Hand-computed checks of the stretch-effort equations (eq. 1-10).

#include "glove/core/stretch.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/fixtures.hpp"
#include "glove/util/rng.hpp"

namespace glove::core {
namespace {

using test::cell;

TEST(SampleStretch, IdenticalSamplesCostNothing) {
  const cdr::Sample s = cell(0, 0, 100);
  const SampleStretch d = sample_stretch(s, 1, s, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.0);
  EXPECT_DOUBLE_EQ(d.temporal, 0.0);
  EXPECT_DOUBLE_EQ(d.total(), 0.0);
}

TEST(SampleStretch, PureTemporalGapHandComputed) {
  // Same cell; intervals [0,1] and [10,11].  Both directions stretch by
  // 10 min, so phi*_tau = 10; phi_tau = 10/480; weighted by 1/2.
  const cdr::Sample a = cell(0, 0, 0);
  const cdr::Sample b = cell(0, 0, 10);
  const SampleStretch d = sample_stretch(a, 1, b, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.0);
  EXPECT_DOUBLE_EQ(d.temporal, 0.5 * 10.0 / 480.0);
}

TEST(SampleStretch, PureSpatialGapHandComputed) {
  // Same minute; cells 1 km apart on the x axis.  Each rectangle must grow
  // 1000 m towards the other: phi*_sigma = 1000; phi_sigma = 1000/20000.
  const cdr::Sample a = cell(0, 0, 50);
  const cdr::Sample b = cell(1'000, 0, 50);
  const SampleStretch d = sample_stretch(a, 1, b, 1);
  EXPECT_DOUBLE_EQ(d.temporal, 0.0);
  EXPECT_DOUBLE_EQ(d.spatial, 0.5 * 1'000.0 / 20'000.0);
}

TEST(SampleStretch, DiagonalGapSumsAxes) {
  // 1 km east and 2 km north: l+r = 3000 in each direction.
  const cdr::Sample a = cell(0, 0, 50);
  const cdr::Sample b = cell(1'000, 2'000, 50);
  const SampleStretch d = sample_stretch(a, 1, b, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.5 * 3'000.0 / 20'000.0);
}

TEST(RawSpatialStretch, ContainmentIsAsymmetricPerDirection) {
  // a = [0,1000]^2 contains b = [400,500]^2: a needs no stretch, b needs
  // l=800 (left/south) + r=1000 (right/north) = 1800.
  const cdr::SpatialExtent a{0, 1'000, 0, 1'000};
  const cdr::SpatialExtent b{400, 100, 400, 100};
  EXPECT_DOUBLE_EQ(raw_spatial_stretch_m(a, 1, b, 1), 0.5 * 1'800.0);
}

TEST(RawSpatialStretch, PopulationWeightsShiftTheCost) {
  // Same geometry; group of 3 behind sample a: stretching b (1 user) is
  // cheap, so the weighted cost drops to 1800 * 1/4.
  const cdr::SpatialExtent a{0, 1'000, 0, 1'000};
  const cdr::SpatialExtent b{400, 100, 400, 100};
  EXPECT_DOUBLE_EQ(raw_spatial_stretch_m(a, 3, b, 1), 1'800.0 / 4.0);
  // And symmetric weighting from b's perspective.
  EXPECT_DOUBLE_EQ(raw_spatial_stretch_m(b, 1, a, 3), 1'800.0 / 4.0);
}

TEST(RawTemporalStretch, PartialOverlapHandComputed) {
  // [0, 20] vs [10, 40]: a stretches right by 20, b stretches left by 10.
  const cdr::TemporalExtent a{0, 20};
  const cdr::TemporalExtent b{10, 30};
  EXPECT_DOUBLE_EQ(raw_temporal_stretch_min(a, 1, b, 1),
                   0.5 * 20.0 + 0.5 * 10.0);
}

TEST(RawTemporalStretch, ContainedIntervalCostsOnlyInner) {
  // [0, 100] contains [40, 50]: a needs 0; b needs 40 left + 50 right.
  const cdr::TemporalExtent a{0, 100};
  const cdr::TemporalExtent b{40, 10};
  EXPECT_DOUBLE_EQ(raw_temporal_stretch_min(a, 1, b, 1), 0.5 * 90.0);
}

TEST(SampleStretch, SaturatesAtLimits) {
  // 30 km apart in space (> 20 km limit) and 10 h apart in time (> 8 h).
  const cdr::Sample a = cell(0, 0, 0);
  const cdr::Sample b = cell(30'000, 0, 600);
  const SampleStretch d = sample_stretch(a, 1, b, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.5);
  EXPECT_DOUBLE_EQ(d.temporal, 0.5);
  EXPECT_DOUBLE_EQ(d.total(), 1.0);
}

TEST(SampleStretch, IsSymmetricForEqualGroups) {
  const cdr::Sample a = test::box(0, 100, 50, 200, 10, 5);
  const cdr::Sample b = test::box(900, 300, -100, 100, 200, 15);
  const SampleStretch ab = sample_stretch(a, 1, b, 1);
  const SampleStretch ba = sample_stretch(b, 1, a, 1);
  EXPECT_DOUBLE_EQ(ab.total(), ba.total());
}

TEST(FingerprintStretch, IdenticalFingerprintsAreZero) {
  const cdr::Fingerprint fp{0u, {cell(0, 0, 10), cell(1'000, 0, 700)}};
  EXPECT_DOUBLE_EQ(fingerprint_stretch(fp, fp), 0.0);
}

TEST(FingerprintStretch, AveragesOverLongerFingerprint) {
  // a has 2 samples, b has 1.  delta(a1, b1) = 0 (identical);
  // delta(a2, b1) = temporal 10 min -> 10/960.
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(0, 0, 10)}};
  const cdr::Fingerprint b{1u, {cell(0, 0, 0)}};
  EXPECT_DOUBLE_EQ(fingerprint_stretch(a, b), (0.0 + 0.5 * 10.0 / 480.0) / 2.0);
}

TEST(FingerprintStretch, IsSymmetric) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(500, 0, 300),
                                cell(2'000, 100, 800)}};
  const cdr::Fingerprint b{1u, {cell(100, 0, 30), cell(700, 0, 500)}};
  EXPECT_DOUBLE_EQ(fingerprint_stretch(a, b), fingerprint_stretch(b, a));
}

TEST(FingerprintStretch, PicksMinimumMatchPerSample) {
  // b has a far sample and a near one; each a-sample must match the near
  // one (min over j), not the average.
  const cdr::Fingerprint a{0u, {cell(0, 0, 0)}};
  const cdr::Fingerprint b{1u, {cell(0, 0, 0), cell(19'000, 0, 470)}};
  // longer is b (2 samples): b1 matches a1 at 0; b2 matches a1 at
  // spatial 19000/20000/2 + temporal 470/480/2.
  const double expected =
      (0.0 + 0.5 * 19'000.0 / 20'000.0 + 0.5 * 470.0 / 480.0) / 2.0;
  EXPECT_DOUBLE_EQ(fingerprint_stretch(a, b), expected);
}

TEST(FingerprintStretch, BoundedByOne) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 0)}};
  const cdr::Fingerprint b{1u, {cell(1e7, 1e7, 1e5)}};
  EXPECT_LE(fingerprint_stretch(a, b), 1.0);
  EXPECT_DOUBLE_EQ(fingerprint_stretch(a, b), 1.0);
}

TEST(FingerprintStretch, EmptyFingerprintCostsNothing) {
  const cdr::Fingerprint a{0u, {}};
  const cdr::Fingerprint b{1u, {cell(0, 0, 0)}};
  EXPECT_DOUBLE_EQ(fingerprint_stretch(a, b), 0.0);
}

// --- Property sweep: delta stays within [0, 1] and is monotone in the gap.

class StretchGapSweep : public ::testing::TestWithParam<double> {};

TEST_P(StretchGapSweep, BoundedAndMonotone) {
  const double gap = GetParam();
  const cdr::Sample a = cell(0, 0, 0);
  const cdr::Sample near = cell(gap, 0, gap / 10.0);
  const cdr::Sample far = cell(gap * 2, 0, gap / 5.0);
  const double d_near = sample_stretch(a, 1, near, 1).total();
  const double d_far = sample_stretch(a, 1, far, 1).total();
  EXPECT_GE(d_near, 0.0);
  EXPECT_LE(d_near, 1.0);
  EXPECT_LE(d_near, d_far);
}

INSTANTIATE_TEST_SUITE_P(Gaps, StretchGapSweep,
                         ::testing::Values(0.0, 10.0, 100.0, 1'000.0,
                                           5'000.0, 20'000.0, 100'000.0));

// --- Time-window pruning is exact: fingerprint_stretch must equal the
// unpruned O(m_a * m_b) scan bit for bit (EXPECT_EQ on the double).

/// Reference eq. 10: every sample pair of one direction.
double full_scan_directed(const cdr::Fingerprint& outer,
                          const cdr::Fingerprint& inner) {
  const PairWeights weights =
      pair_weights(outer.group_size(), inner.group_size());
  double total = 0.0;
  for (const cdr::Sample& so : outer.samples()) {
    double best = 2.0;
    for (const cdr::Sample& si : inner.samples()) {
      const double d = sample_stretch(so, si, weights).total();
      if (d < best) best = d;
    }
    total += best;
  }
  return total / static_cast<double>(outer.size());
}

double full_scan_stretch(const cdr::Fingerprint& a,
                         const cdr::Fingerprint& b) {
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() > b.size()) return full_scan_directed(a, b);
  if (b.size() > a.size()) return full_scan_directed(b, a);
  return (full_scan_directed(a, b) + full_scan_directed(b, a)) / 2.0;
}

void expect_full_scan_value(const cdr::Fingerprint& a,
                            const cdr::Fingerprint& b) {
  EXPECT_EQ(fingerprint_stretch(a, b), full_scan_stretch(a, b));
  EXPECT_EQ(fingerprint_stretch(b, a), full_scan_stretch(b, a));
}

TEST(PrunedStretch, StartTimeTiesWithDifferentLengths) {
  const cdr::Fingerprint a{0u, {test::box(0, 100, 0, 100, 100, 1),
                                test::box(300, 100, 0, 100, 100, 45),
                                test::box(900, 100, 0, 100, 100, 300),
                                test::box(50, 100, 0, 100, 400, 1)}};
  const cdr::Fingerprint b{1u, {test::box(600, 100, 0, 100, 100, 5),
                                test::box(0, 100, 0, 100, 100, 120),
                                test::box(0, 100, 0, 100, 130, 1)}};
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, OuterStartEqualsInnerStart) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 60), cell(2'000, 0, 61),
                                cell(4'000, 0, 600)}};
  const cdr::Fingerprint b{1u, {cell(3'000, 0, 59), cell(100, 0, 60),
                                cell(0, 0, 61), cell(0, 0, 600)}};
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, NegativeStartTimes) {
  const cdr::Fingerprint a{0u, {cell(0, 0, -2'000), cell(500, 0, -30),
                                cell(0, 0, 15)}};
  const cdr::Fingerprint b{1u, {cell(800, 0, -1'990), cell(0, 0, -1.5)}};
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, MergedSamplesSpanningHours) {
  // A long merged interval starting early can be the best match for a
  // sample far past its start; only its start time orders the scan.
  const cdr::Fingerprint a = test::group_fingerprint(
      3, 0, {test::box(0, 2'000, 0, 2'000, 0, 600),
             test::box(10'000, 500, 0, 500, 700, 240)});
  const cdr::Fingerprint b{10u, {cell(500, 500, 590), cell(9'000, 0, 300),
                                 cell(500, 500, 1'500)}};
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, UnequalGroupSizesWeighTheGapSides) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(1'000, 0, 240),
                                cell(0, 0, 500)}};
  const cdr::Fingerprint b = test::group_fingerprint(
      7, 10, {cell(0, 0, 200), cell(900, 0, 260), cell(0, 0, 1'400),
              cell(4'000, 0, 1'450)});
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, NoEarlyBreakWhileBestExceedsTheTemporalWeight) {
  // The near-in-time candidate is spatially saturated (best ~ 0.5 + a
  // little), so the temporally saturated floor (w_tau = 0.5) never reaches
  // best: the scan must go on to the far-in-time, co-located minimum.
  const cdr::Fingerprint a{0u, {cell(0, 0, 0), cell(0, 0, 1), cell(0, 0, 2)}};
  const cdr::Fingerprint b{1u, {cell(100'000, 0, 10), cell(0, 0, 2'000)}};
  expect_full_scan_value(a, b);
  EXPECT_EQ(fingerprint_stretch(a, b), 0.5);
}

TEST(PrunedStretch, ZeroExtentSamples) {
  const cdr::Fingerprint a{0u, {test::box(10, 0, 20, 0, 5, 0),
                                test::box(10, 0, 20, 0, 5, 0),
                                test::box(700, 0, 20, 0, 90, 0)}};
  const cdr::Fingerprint b = test::group_fingerprint(
      2, 5, {test::box(10, 0, 20, 0, 5, 0), test::box(650, 0, 0, 0, 95, 0)});
  expect_full_scan_value(a, b);
}

TEST(PrunedStretch, SeededSweepMatchesFullScan) {
  // Random fingerprints of 1-60 samples: clustered start times (minute
  // grid, so ties are common), negative starts, lengths from 0 to hours,
  // zero and wide extents, group sizes 1-8.  Each pair also runs scaled
  // by 10 in space and 8 in time, which saturates as 2 km / 60 min
  // thresholds would: its best matches often cost more than the saturated
  // temporal floor w_tau, which then must not stop the scan.
  util::Xoshiro256 rng{2024};
  const auto random_fp = [&](cdr::UserId first) {
    const std::size_t n = 1 + util::uniform_index(rng, 60);
    const double origin = util::uniform(rng, -3'000.0, 3'000.0);
    std::vector<cdr::Sample> samples;
    for (std::size_t i = 0; i < n; ++i) {
      const double t =
          origin + std::floor(util::uniform(rng, 0.0, 3'000.0) / 10.0) * 10.0;
      const double dt = util::uniform_index(rng, 4) == 0
                            ? 0.0
                            : std::floor(util::uniform(rng, 1.0, 400.0));
      const double side = util::uniform_index(rng, 3) == 0
                              ? 0.0
                              : util::uniform(rng, 100.0, 8'000.0);
      samples.push_back(test::box(util::uniform(rng, 0.0, 30'000.0), side,
                                  util::uniform(rng, 0.0, 30'000.0), side, t,
                                  dt));
    }
    const auto group =
        static_cast<std::uint32_t>(1 + util::uniform_index(rng, 8));
    return test::group_fingerprint(group, first, std::move(samples));
  };
  for (int i = 0; i < 300; ++i) {
    const cdr::Fingerprint a = random_fp(0);
    const cdr::Fingerprint b = random_fp(100);
    expect_full_scan_value(a, b);
    expect_full_scan_value(test::scaled(a, 10.0, 8.0),
                           test::scaled(b, 10.0, 8.0));
  }
}

TEST(PrunedStretch, CountsOnlyTheSamplePairsItEvaluates) {
  // Identical fingerprints whose samples lie hours apart: every sample's
  // exact match sits at the pivot, and the next sample's start gap alone
  // already costs more than 0, so each direction evaluates one pair per
  // sample.  The out-count accumulates.
  std::vector<cdr::Sample> samples;
  for (int i = 0; i < 10; ++i) samples.push_back(cell(i * 100.0, 0, i * 300.0));
  const cdr::Fingerprint a{0u, samples};
  const cdr::Fingerprint b{1u, samples};
  std::uint64_t pairs = 5;
  EXPECT_EQ(fingerprint_stretch(a, b, &pairs), 0.0);
  EXPECT_EQ(pairs, 5u + 2u * 10u);
}

}  // namespace
}  // namespace glove::core
