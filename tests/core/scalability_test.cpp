#include "glove/core/scalability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Calls `check(a, b)` on 2,000 seeded pairs of one-point fingerprints
/// with unequal group sizes, whose pair weights rarely sum to 1 exactly.
template <typename Check>
void for_each_point_pair(Check check) {
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
    check(a, b);
  }
}

TEST(StretchLowerBound, SeededPointSampleSweepNeverOvershoots) {
  for_each_point_pair(expect_bound_at_most_stretch);
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

void expect_slot_bound_at_most_stretch(const cdr::Fingerprint& a,
                                       const cdr::Fingerprint& b,
                                       const StretchLimits& limits = {}) {
  EXPECT_LE(slot_lower_bound(slot_summary(a), slot_summary(b), limits),
            fingerprint_stretch(a, b, limits));
}

TEST(SlotLowerBound, SummaryGroupsSamplesByStartSlot) {
  // Slots are [n, n + 1) * kSlotMinutes: a start exactly on a boundary
  // opens the next slot, negative starts round down, and a sample running
  // past its slot's end widens t_hi, not the slot.
  const double w = kSlotMinutes;
  std::vector<cdr::Sample> samples;
  samples.push_back(test::box(0, 100, 0, 100, -w - 1, 1));
  samples.push_back(test::box(500, 0, -300, 200, -1, 3.5 * w));
  samples.push_back(test::box(-200, 100, 50, 100, -0.5, 0));
  samples.push_back(test::box(1'000, 100, 0, 100, 0, 1));
  samples.push_back(test::box(0, 0, 0, 0, w, 2));
  samples.push_back(test::box(10, 10, 10, 10, 2 * w - 1, 1));
  const SlotSummary summary = slot_summary(cdr::Fingerprint{0u, samples});
  EXPECT_EQ(summary.samples, 6u);
  ASSERT_EQ(summary.slots.size(), 4u);
  const TimeSlot& before = summary.slots[1];
  EXPECT_EQ(before.count, 2u);
  EXPECT_EQ(before.x_lo, -200.0);
  EXPECT_EQ(before.x_hi, 500.0);
  EXPECT_EQ(before.y_lo, -300.0);
  EXPECT_EQ(before.y_hi, 150.0);
  EXPECT_EQ(before.t_lo, -1.0);
  EXPECT_EQ(before.t_hi, -1.0 + 3.5 * w);
  EXPECT_EQ(summary.slots[2].count, 1u);
  EXPECT_EQ(summary.slots[2].t_lo, 0.0);
  EXPECT_EQ(summary.slots[3].count, 2u);
  EXPECT_EQ(summary.slots[3].t_lo, w);
  EXPECT_EQ(summary.slots[3].t_hi, 2 * w);
  const cdr::Fingerprint empty{std::vector<cdr::UserId>{1u, 2u}, {}};
  EXPECT_TRUE(slot_summary(empty).slots.empty());
}

TEST(SlotLowerBound, ZeroForEmptyFingerprints) {
  const cdr::Fingerprint empty{std::vector<cdr::UserId>{1u, 2u}, {}};
  const cdr::Fingerprint far{3u, {cell(90'000, 90'000, 5'000)}};
  EXPECT_EQ(slot_lower_bound(slot_summary(empty), slot_summary(far), {}), 0.0);
  EXPECT_EQ(slot_lower_bound(slot_summary(far), slot_summary(empty), {}), 0.0);
  EXPECT_EQ(slot_lower_bound(slot_summary(empty), slot_summary(empty), {}),
            0.0);
}

TEST(SlotLowerBound, SeesTimeTheBoxBoundCannot) {
  // Two users visit the same two sites on two days, at hours apart: their
  // boxes and intervals overlap, so the box bound is 0, but no slot of one
  // shares a slot's time with the other.
  const auto commuter = [](cdr::UserId user, double hour) {
    std::vector<cdr::Sample> samples;
    for (const double day : {0.0, 1'440.0}) {
      samples.push_back(cell(0, 0, day + 60.0 * hour));
      samples.push_back(cell(5'000, 0, day + 60.0 * (hour + 9.0)));
    }
    return cdr::Fingerprint{user, std::move(samples)};
  };
  const cdr::Fingerprint early = commuter(0, 6.0);
  const cdr::Fingerprint late = commuter(1, 10.0);
  EXPECT_EQ(stretch_lower_bound(fingerprint_bounds(early),
                                fingerprint_bounds(late), {}),
            0.0);
  const SlotSummary early_slots = slot_summary(early);
  const double slot = slot_lower_bound(early_slots, slot_summary(late), {});
  EXPECT_GT(slot, 0.0);
  EXPECT_LE(slot, fingerprint_stretch(early, late, {}));
}

TEST(SlotLowerBound, SampleSpanningSlotsKeepsItsEnd) {
  // A merged sample covers five slots from its start; the other
  // fingerprint's samples start three slots later at the same place.  The
  // merged sample's slot must end where the sample ends, or the bound
  // reports a time gap that the stretch does not pay.
  const double w = kSlotMinutes;
  const cdr::Fingerprint merged = test::group_fingerprint(
      2, 0, {test::box(0, 100, 0, 100, 10.0, 5.0 * w)});
  const cdr::Fingerprint later{
      5u, {cell(0, 0, 3.0 * w + 20.0), cell(0, 0, 3.0 * w + 40.0)}};
  expect_slot_bound_at_most_stretch(merged, later);
  expect_slot_bound_at_most_stretch(later, merged);
}

/// A seeded fingerprint for the slot-bound sweeps: 1-30 samples (or
/// exactly `samples` when non-zero) within `spread` metres of the origin
/// on each axis, on a minute grid with negative starts, a quarter of them
/// exactly on a slot boundary; lengths of 0, of minutes to hours, or of
/// several slots (as merged samples have); zero and wide extents; group
/// sizes 1-8.
cdr::Fingerprint random_slotted(util::Xoshiro256& rng, cdr::UserId first,
                                double spread, std::size_t samples = 0) {
  const std::size_t n =
      samples != 0 ? samples : 1 + util::uniform_index(rng, 30);
  const double origin = util::uniform(rng, -3'000.0, 3'000.0);
  std::vector<cdr::Sample> trace;
  for (std::size_t i = 0; i < n; ++i) {
    double t = 0.0;
    if (util::uniform_index(rng, 4) == 0) {
      t = kSlotMinutes * std::floor(util::uniform(rng, -25.0, 25.0));
    } else {
      t = origin + 10.0 * std::floor(util::uniform(rng, 0.0, 300.0));
    }
    double dt = std::floor(util::uniform(rng, 1.0, 400.0));
    const std::uint64_t length = util::uniform_index(rng, 4);
    if (length == 0) {
      dt = 0.0;
    } else if (length == 1) {
      dt = util::uniform(rng, 1.0, 5.0) * kSlotMinutes;
    }
    const double side = util::uniform_index(rng, 3) == 0
                            ? 0.0
                            : util::uniform(rng, 100.0, 8'000.0);
    trace.push_back(test::box(util::uniform(rng, 0.0, spread), side,
                              util::uniform(rng, 0.0, spread), side, t, dt));
  }
  const auto group =
      static_cast<std::uint32_t>(1 + util::uniform_index(rng, 8));
  return test::group_fingerprint(group, first, std::move(trace));
}

/// `fp`'s samples as a group of `size` users numbered from `first`.
cdr::Fingerprint regrouped(const cdr::Fingerprint& fp, std::uint32_t size,
                           cdr::UserId first) {
  std::vector<cdr::Sample> samples(fp.samples().begin(), fp.samples().end());
  return test::group_fingerprint(size, first, std::move(samples));
}

/// The spread of the slot-bound sweeps' `i`-th pair: co-located, one 1 km
/// square, or 30 km.
double sweep_spread(int i) {
  if (i % 3 == 0) return 0.0;
  return i % 3 == 1 ? 1'000.0 : 30'000.0;
}

/// The limit sets of the slot-bound sweeps: PrunedStretch's default and
/// tight ones, and a purely spatial one (w_tau = 0).
std::vector<StretchLimits> sweep_limits() {
  StretchLimits tight;
  tight.phi_max_sigma_m = 2'000.0;
  tight.phi_max_tau_min = 60.0;
  StretchLimits spatial;
  spatial.w_sigma = 1.0;
  spatial.w_tau = 0.0;
  return {StretchLimits{}, tight, spatial};
}

TEST(SlotLowerBound, SeededSweepNeverOvershoots) {
  // Brute force: the bound must sit at or below the computed stretch, on
  // the doubles, with no slack.  Every third pair has equal sample counts
  // (both directions averaged), every eighth groups of 1 and 7.  A third
  // of the pairs put every sample at one corner, where time alone decides
  // the bound, and a third share one 1 km square.
  util::Xoshiro256 rng{1601};
  std::size_t positive = 0;
  for (int i = 0; i < 600; ++i) {
    const double spread = sweep_spread(i);
    cdr::Fingerprint a = random_slotted(rng, 0, spread);
    const std::size_t equal = i % 3 == 0 ? a.size() : 0;
    cdr::Fingerprint b = random_slotted(rng, 100, spread, equal);
    if (i % 8 == 0) {
      a = regrouped(a, 1, 0);
      b = regrouped(b, 7, 100);
    }
    const SlotSummary sa = slot_summary(a);
    const SlotSummary sb = slot_summary(b);
    for (const StretchLimits& limits : sweep_limits()) {
      const double bound = slot_lower_bound(sa, sb, limits);
      EXPECT_LE(bound, fingerprint_stretch(a, b, limits)) << "pair " << i;
      EXPECT_EQ(bound, slot_lower_bound(sb, sa, limits)) << "pair " << i;
      if (bound > 0.0) ++positive;
    }
  }
  EXPECT_GT(positive, 600u);
}

TEST(SlotLowerBound, SeededPointSampleSweepNeverOvershoots) {
  // StretchLowerBound's point sweep, where a bound without the rounding
  // margin overshoots by an ulp.
  for_each_point_pair([](const cdr::Fingerprint& a, const cdr::Fingerprint& b) {
    expect_slot_bound_at_most_stretch(a, b);
  });
}

TEST(NodeBounds, ParallelBuildMatchesOneByOne) {
  // 200 fingerprints split into several parallel_for chunks of at least
  // 64, so the build runs concurrently (and TSan checks it).
  util::Xoshiro256 rng{1603};
  std::vector<cdr::Fingerprint> fingerprints;
  for (cdr::UserId i = 0; i < 200; ++i) {
    fingerprints.push_back(random_slotted(rng, 10 * i, 30'000.0));
  }
  const std::vector<NodeBounds> all = node_bounds_of(fingerprints);
  ASSERT_EQ(all.size(), fingerprints.size());
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    const NodeBounds one = node_bounds(fingerprints[i]);
    EXPECT_EQ(all[i].box.box.x, one.box.box.x) << i;
    EXPECT_EQ(all[i].box.box.dx, one.box.box.dx) << i;
    EXPECT_EQ(all[i].box.interval.dt, one.box.interval.dt) << i;
    EXPECT_EQ(all[i].slots.samples, one.slots.samples) << i;
    ASSERT_EQ(all[i].slots.slots.size(), one.slots.slots.size()) << i;
    for (std::size_t s = 0; s < one.slots.slots.size(); ++s) {
      EXPECT_EQ(all[i].slots.slots[s].t_hi, one.slots.slots[s].t_hi) << i;
      EXPECT_EQ(all[i].slots.slots[s].count, one.slots.slots[s].count) << i;
    }
  }
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
  // bounds; a few groups are empty (stretch 0 to anything).  Start times
  // spread over several slots, and each group's slot summary is passed, so
  // the search runs the whole box -> slot -> exact cascade.  It must
  // return the full scan's index and stretch bit for bit, and still skip
  // the distant groups.
  util::Xoshiro256 rng{411};
  const auto lattice = [&](std::uint64_t steps, double step) {
    const auto i = static_cast<double>(util::uniform_index(rng, 2 * steps + 1));
    return (i - static_cast<double>(steps)) * step;
  };
  const auto random_fingerprint = [&](std::uint32_t size, cdr::UserId first) {
    std::vector<cdr::Sample> samples;
    const std::uint64_t count = 1 + util::uniform_index(rng, 4);
    if (size > 1 && util::uniform_index(rng, 12) == 0) {
      return test::group_fingerprint(size, first, {});  // suppressed away
    }
    const bool far = util::uniform_index(rng, 4) == 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      samples.push_back(cell(lattice(far ? 40 : 4, 1'000.0),
                             lattice(far ? 40 : 4, 1'000.0),
                             60.0 * (6.0 + lattice(6, 1.0))));
    }
    return test::group_fingerprint(size, first, std::move(samples));
  };

  std::uint64_t evaluations = 0;
  std::uint64_t sample_pairs = 0;
  std::uint64_t candidates = 0;
  std::size_t multi_slot = 0;
  int decisive_ties = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<cdr::Fingerprint> groups;
    std::vector<NodeBounds> bounds;
    const std::uint64_t count = 2 + util::uniform_index(rng, 30);
    for (std::uint64_t g = 0; g < count; ++g) {
      const auto size = static_cast<std::uint32_t>(
          2 + util::uniform_index(rng, 3));
      groups.push_back(random_fingerprint(size, static_cast<cdr::UserId>(
                                                    10 * (g + 1))));
      bounds.push_back(node_bounds(groups.back()));
      if (bounds.back().slots.slots.size() > 1) ++multi_slot;
    }
    const cdr::Fingerprint leftover = random_fingerprint(1, 0);

    const NearestGroup expected = full_scan_nearest(leftover, groups);
    const NearestGroup found = nearest_group(leftover, groups, bounds, {},
                                             &evaluations, &sample_pairs);
    EXPECT_EQ(found.index, expected.index) << "trial " << trial;
    EXPECT_EQ(found.stretch, expected.stretch) << "trial " << trial;
    candidates += count;

    // A tie is decisive when a later tied group has a strictly lower
    // cascade bound than the first: visiting by bound alone would pick it.
    const NodeBounds own = node_bounds(leftover);
    const auto cascade_bound = [&](std::size_t g) {
      return std::max(stretch_lower_bound(own.box, bounds[g].box, {}),
                      slot_lower_bound(own.slots, bounds[g].slots, {}));
    };
    const double first_bound = cascade_bound(expected.index);
    for (std::size_t g = expected.index + 1; g < groups.size(); ++g) {
      if (fingerprint_stretch(leftover, groups[g], {}) == expected.stretch &&
          cascade_bound(g) < first_bound) {
        ++decisive_ties;
        break;
      }
    }
  }
  EXPECT_LT(evaluations, candidates);
  EXPECT_GT(sample_pairs, 0u);
  EXPECT_GT(multi_slot, candidates / 2);
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
