#include "glove/core/scalability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
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

TEST(StretchLowerBound, ZeroForEmptyFingerprints) {
  // A group suppression emptied merges with anything at stretch 0.
  const cdr::Fingerprint empty{std::vector<cdr::UserId>{1u, 2u}, {}};
  const cdr::Fingerprint far{3u, {cell(90'000, 90'000, 5'000)}};
  ASSERT_EQ(fingerprint_stretch(empty, far, {}), 0.0);
  EXPECT_EQ(stretch_lower_bound(fingerprint_bounds(empty),
                                fingerprint_bounds(far), {}),
            0.0);
  EXPECT_EQ(stretch_lower_bound(fingerprint_bounds(far),
                                fingerprint_bounds(empty), {}),
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

/// The first minimum-stretch group a full scan in index order finds.
NearestGroup full_scan_nearest(const cdr::Fingerprint& fp,
                               const std::vector<cdr::Fingerprint>& groups) {
  NearestGroup best{0, std::numeric_limits<double>::infinity()};
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const double d = fingerprint_stretch(fp, groups[g], {});
    if (d < best.stretch) best = NearestGroup{g, d};
  }
  return best;
}

TEST(NearestGroup, SeededLatticeSweepMatchesFullScan) {
  // Samples on a coarse lattice, mirrored around the origin, so many
  // groups tie at the minimum stretch while rounding gives them different
  // bounds; a few groups are empty (stretch 0 to anything).  The search
  // must return the full scan's index and stretch bit for bit, and still
  // skip the distant groups.
  util::Xoshiro256 rng{411};
  const auto lattice = [&](std::uint64_t steps, double step) {
    const auto i = static_cast<double>(util::uniform_index(rng, 2 * steps + 1));
    return (i - static_cast<double>(steps)) * step;
  };
  const auto random_fingerprint = [&](std::uint32_t size, cdr::UserId first) {
    std::vector<cdr::Sample> samples;
    const std::uint64_t count = 1 + util::uniform_index(rng, 3);
    if (size > 1 && util::uniform_index(rng, 12) == 0) {
      return test::group_fingerprint(size, first, {});  // suppressed away
    }
    const bool far = util::uniform_index(rng, 4) == 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      samples.push_back(cell(lattice(far ? 40 : 4, 1'000.0),
                             lattice(far ? 40 : 4, 1'000.0),
                             60.0 * (2.0 + lattice(2, 1.0))));
    }
    return test::group_fingerprint(size, first, std::move(samples));
  };

  std::uint64_t evaluations = 0;
  std::uint64_t sample_pairs = 0;
  std::uint64_t candidates = 0;
  int decisive_ties = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<cdr::Fingerprint> groups;
    std::vector<FingerprintBounds> bounds;
    const std::uint64_t count = 2 + util::uniform_index(rng, 30);
    for (std::uint64_t g = 0; g < count; ++g) {
      const auto size = static_cast<std::uint32_t>(
          2 + util::uniform_index(rng, 3));
      groups.push_back(random_fingerprint(size, static_cast<cdr::UserId>(
                                                    10 * (g + 1))));
      bounds.push_back(fingerprint_bounds(groups.back()));
    }
    const cdr::Fingerprint leftover = random_fingerprint(1, 0);

    const NearestGroup expected = full_scan_nearest(leftover, groups);
    const NearestGroup found = nearest_group(leftover, groups, bounds, {},
                                             &evaluations, &sample_pairs);
    EXPECT_EQ(found.index, expected.index) << "trial " << trial;
    EXPECT_EQ(found.stretch, expected.stretch) << "trial " << trial;
    candidates += count;

    // A tie is decisive when a later tied group has a strictly lower bound
    // than the first: visiting by bound alone would pick it.
    const FingerprintBounds own = fingerprint_bounds(leftover);
    const double first_bound =
        stretch_lower_bound(own, bounds[expected.index], {});
    for (std::size_t g = expected.index + 1; g < groups.size(); ++g) {
      if (fingerprint_stretch(leftover, groups[g], {}) == expected.stretch &&
          stretch_lower_bound(own, bounds[g], {}) < first_bound) {
        ++decisive_ties;
        break;
      }
    }
  }
  EXPECT_LT(evaluations, candidates);
  EXPECT_GT(sample_pairs, 0u);
  EXPECT_GT(decisive_ties, 0);
}

TEST(NearestGroup, RejectsEmptyOrMisalignedGroups) {
  const cdr::Fingerprint fp{0u, {cell(0, 0, 0)}};
  const std::vector<cdr::Fingerprint> none;
  EXPECT_THROW((void)nearest_group(fp, none, {}, {}), std::invalid_argument);
  const std::vector<cdr::Fingerprint> one{fp};
  EXPECT_THROW((void)nearest_group(fp, one, {}, {}), std::invalid_argument);
}

TEST(LocalityChunks, SortsByKeyThenPositionAndNeverLeavesASubKTail) {
  // Positions 0..4 sit at descending x, so their keys run in reverse
  // position order; 5 and 6 share 2's key, and ties keep position order.
  // Runs of 3 at k = 2 would leave a 1-position tail, so the last run
  // takes it.
  std::vector<FingerprintBounds> bounds;
  for (const double x_km : {60.0, 50.0, 30.0, 20.0, 10.0, 30.0, 30.0}) {
    bounds.push_back(
        fingerprint_bounds(cdr::Fingerprint{0u, {cell(x_km * 1e3, 0, 0)}}));
  }
  EXPECT_EQ(locality_chunks(bounds, 3, 2),
            (std::vector<std::vector<std::uint32_t>>{{4, 3, 2},
                                                     {5, 6, 1, 0}}));
  EXPECT_THROW((void)locality_chunks(bounds, 1, 2), std::invalid_argument);
  EXPECT_TRUE(locality_chunks({}, 3, 2).empty());
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
