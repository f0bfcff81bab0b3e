// Property-based tests: invariants of the stretch metric, the merge
// operation and the GLOVE pipeline over randomized inputs (seed-swept via
// parameterized suites so failures reproduce deterministically).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/merge.hpp"
#include "glove/core/stretch.hpp"
#include "glove/util/rng.hpp"

namespace glove {
namespace {

cdr::Sample random_sample(util::Xoshiro256& rng, double region_m = 50'000.0,
                          double horizon_min = 10'000.0) {
  cdr::Sample s;
  s.sigma.x = util::uniform(rng, 0.0, region_m);
  s.sigma.y = util::uniform(rng, 0.0, region_m);
  s.sigma.dx = 100.0;
  s.sigma.dy = 100.0;
  s.tau.t = util::uniform(rng, 0.0, horizon_min);
  s.tau.dt = 1.0;
  return s;
}

cdr::Fingerprint random_fingerprint(util::Xoshiro256& rng, cdr::UserId id,
                                    std::size_t min_len = 2,
                                    std::size_t max_len = 12) {
  const std::size_t len =
      min_len + util::uniform_index(rng, max_len - min_len + 1);
  std::vector<cdr::Sample> samples;
  samples.reserve(len);
  for (std::size_t i = 0; i < len; ++i) samples.push_back(random_sample(rng));
  return cdr::Fingerprint{id, std::move(samples)};
}

cdr::FingerprintDataset random_dataset(std::uint64_t seed, std::size_t users) {
  util::Xoshiro256 rng{seed};
  std::vector<cdr::Fingerprint> fps;
  fps.reserve(users);
  for (cdr::UserId u = 0; u < users; ++u) {
    fps.push_back(random_fingerprint(rng, u));
  }
  return cdr::FingerprintDataset{std::move(fps)};
}

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeededProperty, SampleStretchAxioms) {
  util::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 200; ++trial) {
    const cdr::Sample a = random_sample(rng);
    const cdr::Sample b = random_sample(rng);
    const core::SampleStretch ab = core::sample_stretch(a, 1, b, 1);
    const core::SampleStretch ba = core::sample_stretch(b, 1, a, 1);
    // Bounded.
    EXPECT_GE(ab.spatial, 0.0);
    EXPECT_GE(ab.temporal, 0.0);
    EXPECT_LE(ab.total(), 1.0 + 1e-12);
    // Symmetric for equal group sizes.
    EXPECT_NEAR(ab.total(), ba.total(), 1e-12);
    // Identity of indiscernibles (one direction).
    const core::SampleStretch aa = core::sample_stretch(a, 1, a, 1);
    EXPECT_DOUBLE_EQ(aa.total(), 0.0);
  }
}

TEST_P(SeededProperty, MergedSampleStretchIsZeroAfterUnion) {
  // After merging, both originals are covered, so the stretch from the
  // merged sample to each original is *contained*: zero growth needed from
  // the merged side (up to (start, length) representation rounding).
  util::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 100; ++trial) {
    const cdr::Sample a = random_sample(rng);
    const cdr::Sample b = random_sample(rng);
    const cdr::Sample m = core::merge_samples(a, b);
    // The merged rectangle needs no growth to cover a or b.
    EXPECT_NEAR(core::raw_spatial_stretch_m(m.sigma, 1, a.sigma, 0), 0.0,
                1e-6);
    EXPECT_NEAR(core::raw_temporal_stretch_min(m.tau, 1, b.tau, 0), 0.0,
                1e-6);
  }
}

TEST_P(SeededProperty, MergeSamplesIsAssociativeOnCoverage) {
  // Union order must not change the final covering rectangle/interval
  // (up to floating-point rounding of the (start, length) encoding).
  util::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 100; ++trial) {
    const cdr::Sample a = random_sample(rng);
    const cdr::Sample b = random_sample(rng);
    const cdr::Sample c = random_sample(rng);
    const cdr::Sample left =
        core::merge_samples(core::merge_samples(a, b), c);
    const cdr::Sample right =
        core::merge_samples(a, core::merge_samples(b, c));
    EXPECT_NEAR(left.sigma.x, right.sigma.x, 1e-6);
    EXPECT_NEAR(left.sigma.x_end(), right.sigma.x_end(), 1e-6);
    EXPECT_NEAR(left.sigma.y, right.sigma.y, 1e-6);
    EXPECT_NEAR(left.sigma.y_end(), right.sigma.y_end(), 1e-6);
    EXPECT_NEAR(left.tau.t, right.tau.t, 1e-9);
    EXPECT_NEAR(left.tau.t_end(), right.tau.t_end(), 1e-6);
    EXPECT_EQ(left.contributors, right.contributors);
  }
}

TEST_P(SeededProperty, FingerprintStretchSymmetricAndBounded) {
  util::Xoshiro256 rng{GetParam()};
  for (int trial = 0; trial < 30; ++trial) {
    const cdr::Fingerprint a = random_fingerprint(rng, 0);
    const cdr::Fingerprint b = random_fingerprint(rng, 1);
    const double ab = core::fingerprint_stretch(a, b);
    const double ba = core::fingerprint_stretch(b, a);
    EXPECT_NEAR(ab, ba, 1e-12);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0 + 1e-12);
  }
}

TEST_P(SeededProperty, GloveEndToEndInvariants) {
  const cdr::FingerprintDataset data = random_dataset(GetParam(), 24);
  core::GloveConfig config;
  config.k = 2;
  const core::GloveResult result = core::anonymize(data, config);

  // Postcondition: k-anonymity.
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
  // No user lost, none duplicated.
  std::vector<cdr::UserId> users;
  for (const auto& fp : result.anonymized.fingerprints()) {
    users.insert(users.end(), fp.members().begin(), fp.members().end());
  }
  std::sort(users.begin(), users.end());
  EXPECT_EQ(users.size(), 24u);
  EXPECT_EQ(std::adjacent_find(users.begin(), users.end()), users.end());
  // Truthfulness: every original sample covered (no suppression here).
  EXPECT_EQ(core::count_uncovered_samples(data, result.anonymized), 0u);
  // Published samples never lose the time-sorted invariant.
  for (const auto& fp : result.anonymized.fingerprints()) {
    for (std::size_t i = 1; i < fp.size(); ++i) {
      EXPECT_LE(fp.samples()[i - 1].tau.t, fp.samples()[i].tau.t);
    }
  }
}

TEST_P(SeededProperty, GloveWithSuppressionRespectsThresholds) {
  const cdr::FingerprintDataset data = random_dataset(GetParam() ^ 0xabc, 20);
  core::GloveConfig config;
  config.suppression = core::SuppressionThresholds{10'000.0, 240.0};
  const core::GloveResult result = core::anonymize(data, config);
  EXPECT_TRUE(core::is_k_anonymous(result.anonymized, 2));
  for (const auto& fp : result.anonymized.fingerprints()) {
    for (const auto& s : fp.samples()) {
      EXPECT_LE(s.sigma.accuracy_m(), 10'000.0 + 1e-9);
      EXPECT_LE(s.tau.dt, 240.0 + 1e-9);
    }
  }
  // Conservation: published + deleted = input samples (contributor-
  // weighted), since merging conserves contributors and only suppression
  // removes them.
  std::uint64_t published = 0;
  for (const auto& fp : result.anonymized.fingerprints()) {
    published += fp.total_contributors();
  }
  EXPECT_EQ(published + result.stats.deleted_samples,
            data.total_samples());
}

TEST_P(SeededProperty, ReshapeOutputsAreOverlapFreeAndCovering) {
  util::Xoshiro256 rng{GetParam() * 31 + 7};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<cdr::Sample> samples;
    const std::size_t n = 2 + util::uniform_index(rng, 10);
    for (std::size_t i = 0; i < n; ++i) {
      cdr::Sample s = random_sample(rng, 10'000.0, 500.0);
      s.tau.dt = util::uniform(rng, 1.0, 120.0);
      samples.push_back(s);
    }
    const auto out = core::reshape_samples(samples);
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_FALSE(cdr::time_overlaps(out[i - 1], out[i]));
    }
    // Contributor conservation.
    std::uint64_t before = 0;
    std::uint64_t after = 0;
    for (const auto& s : samples) before += s.contributors;
    for (const auto& s : out) after += s.contributors;
    EXPECT_EQ(before, after);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

}  // namespace
}  // namespace glove
