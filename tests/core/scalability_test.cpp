#include "glove/core/scalability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/fixtures.hpp"
#include "glove/synth/generator.hpp"
#include "glove/util/rng.hpp"

namespace glove::core {
namespace {

cdr::Sample cell(double x, double y, double t) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, 100.0, y, 100.0};
  s.tau = cdr::TemporalExtent{t, 1.0};
  return s;
}

TEST(FingerprintBounds, CoversAllSamples) {
  const cdr::Fingerprint fp{0u, {cell(0, 0, 10), cell(5'000, -2'000, 600),
                                 cell(1'000, 3'000, 100)}};
  const FingerprintBounds b = fingerprint_bounds(fp);
  EXPECT_DOUBLE_EQ(b.box.x, 0.0);
  EXPECT_DOUBLE_EQ(b.box.x_end(), 5'100.0);
  EXPECT_DOUBLE_EQ(b.box.y, -2'000.0);
  EXPECT_DOUBLE_EQ(b.box.y_end(), 3'100.0);
  EXPECT_DOUBLE_EQ(b.interval.t, 10.0);
  EXPECT_DOUBLE_EQ(b.interval.t_end(), 601.0);
}

TEST(StretchLowerBound, ZeroForOverlappingBoxes) {
  const cdr::Fingerprint a{0u, {cell(0, 0, 10), cell(2'000, 0, 100)}};
  const cdr::Fingerprint b{1u, {cell(1'000, 0, 50)}};
  EXPECT_DOUBLE_EQ(stretch_lower_bound(fingerprint_bounds(a),
                                       fingerprint_bounds(b), {}),
                   0.0);
}

TEST(StretchLowerBound, NeverExceedsTrueStretch) {
  // Soundness on a spread of geometries.
  const std::vector<cdr::Fingerprint> fps{
      cdr::Fingerprint{0u, {cell(0, 0, 10), cell(500, 0, 300)}},
      cdr::Fingerprint{1u, {cell(30'000, 0, 20)}},
      cdr::Fingerprint{2u, {cell(5'000, 5'000, 5'000)}},
      cdr::Fingerprint{3u, {cell(100, 100, 11'000), cell(0, 0, 12'000)}},
  };
  for (const auto& a : fps) {
    for (const auto& b : fps) {
      const double lb = stretch_lower_bound(fingerprint_bounds(a),
                                            fingerprint_bounds(b), {});
      const double d = fingerprint_stretch(a, b, {});
      EXPECT_LE(lb, d);
    }
  }
}

/// Zero-extent sample (the CSV reader accepts dx = dy = dt = 0).
cdr::Sample point(double x, double y, double t) {
  return test::box(x, 0.0, y, 0.0, t, 0.0);
}

void expect_bound_at_most_stretch(const cdr::Fingerprint& a,
                                  const cdr::Fingerprint& b) {
  const double lb =
      stretch_lower_bound(fingerprint_bounds(a), fingerprint_bounds(b), {});
  EXPECT_LE(lb, fingerprint_stretch(a, b, {}));
}

TEST(StretchLowerBound, PointSamplesWithUnequalGroupsDoNotOvershoot) {
  // The pair weights 1/9 and 8/9 do not round to a sum of 1, so the gap
  // bound computed without a margin lands one ulp above the stretch.
  const cdr::Fingerprint a{
      0u, {point(217.43645178263716, 3516.91044301918, 157.4398745511656)}};
  const cdr::Fingerprint b = test::group_fingerprint(
      8, 1, {point(4915.938586548369, 2965.918651900288, 68.13967874227251)});
  expect_bound_at_most_stretch(a, b);
  expect_bound_at_most_stretch(b, a);
}

TEST(StretchLowerBound, SeededPointSampleSweepNeverOvershoots) {
  util::Xoshiro256 rng{99};
  for (int i = 0; i < 2'000; ++i) {
    const auto na = static_cast<std::uint32_t>(1 + util::uniform_index(rng, 8));
    auto nb = static_cast<std::uint32_t>(1 + util::uniform_index(rng, 7));
    if (nb >= na) ++nb;  // unequal group sizes
    const auto random_point = [&] {
      return point(util::uniform(rng, 0.0, 10'000.0),
                   util::uniform(rng, 0.0, 10'000.0),
                   util::uniform(rng, 0.0, 480.0));
    };
    const cdr::Fingerprint a =
        test::group_fingerprint(na, 0, {random_point()});
    const cdr::Fingerprint b =
        test::group_fingerprint(nb, 100, {random_point()});
    expect_bound_at_most_stretch(a, b);
  }
}

TEST(StretchLowerBound, BoxEndRoundingDoesNotWidenTheGap) {
  // a spans [lo, hi] in x; its bounding box stores hi - lo, and
  // lo + (hi - lo) rounds ~5e-11 below hi.  b sits one ulp right of hi, so
  // an unpadded box end would report a gap 10^5 times the true one.
  const double lo = -766136.8727868479;
  const double hi = 2.550690257394217;
  const double next = std::nextafter(hi, 10.0);
  const cdr::Fingerprint a{0u, {point(lo, 0, 0), point(hi, 0, 0)}};
  const cdr::Fingerprint b{
      1u, {point(next, 0, 0), point(next, 0, 0), point(next, 0, 0)}};
  expect_bound_at_most_stretch(a, b);
  expect_bound_at_most_stretch(b, a);
}

TEST(KGapsPruned, MatchesBruteForceGaps) {
  synth::SynthConfig config = synth::civ_like(60, 37);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  const auto brute = k_gaps(data, 3);
  std::uint64_t pruned = 0;
  const auto fast = k_gaps_pruned(data, 3, {}, &pruned);
  ASSERT_EQ(brute.size(), fast.size());
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_DOUBLE_EQ(brute[i].gap, fast[i].gap);
  }
}

TEST(KGapsPruned, ActuallyPrunesSpreadData) {
  // Users in two far-apart cities: cross-city pairs must be skipped.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 10; ++u) {
    const double base = u < 5 ? 0.0 : 400'000.0;
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(base + u * 100.0, 0, u * 10.0),
                            cell(base + u * 100.0, 0, 700 + u * 10.0)});
  }
  std::uint64_t pruned = 0;
  (void)k_gaps_pruned(cdr::FingerprintDataset{std::move(fps)}, 2, {},
                      &pruned);
  EXPECT_GT(pruned, 0u);
}

TEST(KGapsPruned, RejectsInvalidArguments) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  const cdr::FingerprintDataset data{std::move(fps)};
  EXPECT_THROW((void)k_gaps_pruned(data, 2), std::invalid_argument);
}

TEST(ChunkedGlove, AchievesKAnonymityPerChunk) {
  synth::SynthConfig config = synth::civ_like(80, 41);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  ChunkedConfig chunked;
  chunked.glove.k = 2;
  chunked.chunk_size = 20;
  const GloveResult result = anonymize_chunked(data, chunked);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 2));
  EXPECT_EQ(result.anonymized.total_users(), data.total_users());
}

TEST(ChunkedGlove, NoUserLostAcrossChunks) {
  synth::SynthConfig config = synth::civ_like(50, 43);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  ChunkedConfig chunked;
  chunked.chunk_size = 15;
  const GloveResult result = anonymize_chunked(data, chunked);
  std::set<cdr::UserId> users;
  for (const auto& fp : result.anonymized.fingerprints()) {
    users.insert(fp.members().begin(), fp.members().end());
  }
  EXPECT_EQ(users.size(), data.size());
}

TEST(ChunkedGlove, TailSmallerThanKAbsorbedIntoLastChunk) {
  // 11 users with chunk size 5 and k = 3: the final 1-user tail must be
  // folded into the previous chunk, not anonymized alone.
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 11; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(u * 300.0, 0, u * 50.0)});
  }
  ChunkedConfig chunked;
  chunked.glove.k = 3;
  chunked.chunk_size = 5;
  const GloveResult result =
      anonymize_chunked(cdr::FingerprintDataset{std::move(fps)}, chunked);
  EXPECT_TRUE(is_k_anonymous(result.anonymized, 3));
  EXPECT_EQ(result.anonymized.total_users(), 11u);
}

TEST(ChunkedGlove, SingleChunkEqualsPlainGlove) {
  synth::SynthConfig config = synth::civ_like(30, 47);
  config.days = 2.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  ChunkedConfig chunked;
  chunked.chunk_size = 1'000;  // everything in one chunk
  const GloveResult plain = anonymize(data, chunked.glove);
  const GloveResult one_chunk = anonymize_chunked(data, chunked);
  EXPECT_EQ(one_chunk.anonymized.size(), plain.anonymized.size());
  EXPECT_EQ(one_chunk.stats.merges, plain.stats.merges);
}

TEST(ChunkedGlove, RejectsBadConfig) {
  synth::SynthConfig config = synth::civ_like(20, 49);
  config.days = 1.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  ChunkedConfig chunked;
  chunked.glove.k = 5;
  chunked.chunk_size = 3;
  EXPECT_THROW((void)anonymize_chunked(data, chunked),
               std::invalid_argument);
}

}  // namespace
}  // namespace glove::core
