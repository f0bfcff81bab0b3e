// Golden-value regression tests: lock the numerics of the core metrics on
// fixed inputs so future refactors cannot silently change the semantics of
// eq. 1-13.  Values were hand-derived (see comments) — they are contracts,
// not snapshots.

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/core/merge.hpp"
#include "glove/core/stretch.hpp"

namespace glove {
namespace {

using test::box;

TEST(Golden, SampleStretchMixedGeometry) {
  // a = [0,100]x[0,100] @ [0,1]; b = [400,600]x[250,300] @ [45,75].
  // Spatial, a->b: l = 0, r = (600-100)+(300-100) = 700.
  // Spatial, b->a: l = 400+250 = 650, r = 0.  Weighted 1:1 -> 675.
  // Temporal, a->b: l = 0, r = 75-1 = 74; b->a: l = 45, r = 0 -> 59.5.
  // delta = 0.5*675/20000 + 0.5*59.5/480.
  const cdr::Sample a = box(0, 100, 0, 100, 0, 1);
  const cdr::Sample b = box(400, 200, 250, 50, 45, 30);
  const core::SampleStretch d = core::sample_stretch(a, 1, b, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.5 * 675.0 / 20'000.0);
  EXPECT_DOUBLE_EQ(d.temporal, 0.5 * 59.5 / 480.0);
}

TEST(Golden, WeightedSampleStretch) {
  // Same geometry, a carries a group of 3: weights 3/4 and 1/4.
  // Spatial: 700*(3/4) + 650*(1/4) = 687.5.
  // Temporal: 74*(3/4) + 45*(1/4) = 66.75.
  const cdr::Sample a = box(0, 100, 0, 100, 0, 1);
  const cdr::Sample b = box(400, 200, 250, 50, 45, 30);
  const core::SampleStretch d = core::sample_stretch(a, 3, b, 1);
  EXPECT_DOUBLE_EQ(d.spatial, 0.5 * 687.5 / 20'000.0);
  EXPECT_DOUBLE_EQ(d.temporal, 0.5 * 66.75 / 480.0);
}

TEST(Golden, FingerprintStretchThreeByTwo) {
  // a: 3 samples, b: 2 samples; iterate over a (longer).
  //   a1 = cell(0,0)@0    -> best match b1 = cell(0,0)@10:    temporal 10
  //   a2 = cell(1000,0)@500 -> b2 = cell(1200,0)@520: spatial 200, temp 20
  //   a3 = cell(0,0)@900  -> b1: temporal 890 (>480 saturates to 1) vs
  //        b2 spatial 1200 temporal 380: delta(b2) = 0.5*1200/20000 +
  //        0.5*380/480 = 0.03 + 0.3958.. = 0.4258.. < delta(b1) = 0.5*0 +
  //        0.5*1 = 0.5 -> picks b2.
  const cdr::Fingerprint a{0u, {box(0, 100, 0, 100, 0, 1),
                                box(1'000, 100, 0, 100, 500, 1),
                                box(0, 100, 0, 100, 900, 1)}};
  const cdr::Fingerprint b{1u, {box(0, 100, 0, 100, 10, 1),
                                box(1'200, 100, 0, 100, 520, 1)}};
  const double d1 = 0.5 * 10.0 / 480.0;
  const double d2 = 0.5 * 200.0 / 20'000.0 + 0.5 * 20.0 / 480.0;
  const double d3 = 0.5 * 1'200.0 / 20'000.0 + 0.5 * 380.0 / 480.0;
  EXPECT_DOUBLE_EQ(core::fingerprint_stretch(a, b), (d1 + d2 + d3) / 3.0);
}

TEST(Golden, MergeProducesExactUnion) {
  const cdr::Sample a = box(0, 100, 0, 100, 0, 1);
  const cdr::Sample b = box(400, 200, 250, 50, 45, 30);
  const cdr::Sample m = core::merge_samples(a, b);
  EXPECT_DOUBLE_EQ(m.sigma.x, 0.0);
  EXPECT_DOUBLE_EQ(m.sigma.dx, 600.0);
  EXPECT_DOUBLE_EQ(m.sigma.y, 0.0);
  EXPECT_DOUBLE_EQ(m.sigma.dy, 300.0);
  EXPECT_DOUBLE_EQ(m.tau.t, 0.0);
  EXPECT_DOUBLE_EQ(m.tau.dt, 75.0);
}

TEST(Golden, GloveOnFixedFourUsers) {
  // Two natural pairs; GLOVE must find exactly them and produce the exact
  // unions.
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{box(0, 100, 0, 100, 0, 1)});
  fps.emplace_back(1u,
                   std::vector<cdr::Sample>{box(200, 100, 0, 100, 5, 1)});
  fps.emplace_back(
      2u, std::vector<cdr::Sample>{box(9'000, 100, 0, 100, 700, 1)});
  fps.emplace_back(
      3u, std::vector<cdr::Sample>{box(9'300, 100, 0, 100, 710, 1)});
  const core::GloveResult result =
      core::anonymize(cdr::FingerprintDataset{std::move(fps)}, {});
  ASSERT_EQ(result.anonymized.size(), 2u);
  // Group {0,1}: union = [0,300]x[0,100] @ [0,6].
  // Group {2,3}: union = [9000,9400]x[0,100] @ [700,711].
  for (const auto& fp : result.anonymized.fingerprints()) {
    ASSERT_EQ(fp.size(), 1u);
    const cdr::Sample& s = fp.samples()[0];
    if (fp.representative() == 0u) {
      EXPECT_DOUBLE_EQ(s.sigma.dx, 300.0);
      EXPECT_DOUBLE_EQ(s.tau.t, 0.0);
      EXPECT_DOUBLE_EQ(s.tau.dt, 6.0);
    } else {
      EXPECT_DOUBLE_EQ(s.sigma.x, 9'000.0);
      EXPECT_DOUBLE_EQ(s.sigma.dx, 400.0);
      EXPECT_DOUBLE_EQ(s.tau.dt, 11.0);
    }
  }
}

TEST(Golden, DatasetCsvRoundTripIsExactOnRandomData) {
  // Property: write -> read is the identity on structure and values.
  const cdr::FingerprintDataset data = test::random_dataset(15, /*seed=*/404);

  const cdr::FingerprintDataset back =
      test::read_dataset_text(test::dataset_to_csv(data));
  test::expect_datasets_near(back, data);
}

TEST(Golden, AnonymizedPairedDatasetMatchesGoldenFile) {
  // End-to-end regression: the full GLOVE output on the shared paired
  // dataset, serialized to CSV, against a checked-in reference.  Catches
  // any semantic drift in the merge order, union geometry or serializer.
  const core::GloveResult result =
      core::anonymize(test::paired_dataset(), {});
  test::expect_matches_golden("glove_paired_k2.csv",
                              test::dataset_to_csv(result.anonymized));
}

}  // namespace
}  // namespace glove
