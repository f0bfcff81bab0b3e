#include "glove/core/scalability.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/eager_nearest.hpp"
#include "common/fixtures.hpp"
#include "glove/geo/geo.hpp"
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

/// Every candidate but `skip`, sorted by (stretch, index): the order
/// nearest must reproduce.
std::vector<Neighbor> full_scan(const cdr::Fingerprint& fp,
                                const std::vector<cdr::Fingerprint>& candidates,
                                std::optional<std::uint32_t> skip,
                                std::span<const std::uint32_t> ids) {
  std::vector<Neighbor> all;
  for (const std::uint32_t c : ids) {
    if (c == skip) continue;
    all.push_back(Neighbor{c, fingerprint_stretch(fp, candidates[c], {})});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& x, const Neighbor& y) {
    return std::tie(x.stretch, x.index) < std::tie(y.stretch, y.index);
  });
  return all;
}

/// 0, 1, ..., count - 1.
std::vector<std::uint32_t> every_id(std::size_t count) {
  std::vector<std::uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  return ids;
}

/// A seeded fingerprint of 1-4 samples on a coarse lattice mirrored around
/// the origin, so many candidates tie at one stretch while rounding gives
/// them different bounds: within 4 km of the origin, or for a quarter of
/// them 40 km; start times over several slots.  A group (size > 1) has no
/// samples one time in twelve, as a group suppression can leave it.
cdr::Fingerprint lattice_fingerprint(util::Xoshiro256& rng, std::uint32_t size,
                                     cdr::UserId first) {
  const auto lattice = [&](std::uint64_t steps, double step) {
    const auto i = static_cast<double>(util::uniform_index(rng, 2 * steps + 1));
    return (i - static_cast<double>(steps)) * step;
  };
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
}

/// The grid search must do the eager cascade's work exactly, and bound no
/// more boxes than it.
void expect_same_cascade(const SearchTally& grid, const SearchTally& eager,
                         int trial) {
  EXPECT_EQ(grid.slot_bounds, eager.slot_bounds) << "trial " << trial;
  EXPECT_EQ(grid.evaluations, eager.evaluations) << "trial " << trial;
  EXPECT_EQ(grid.sample_pairs, eager.sample_pairs) << "trial " << trial;
  EXPECT_LE(grid.box_bounds, eager.box_bounds) << "trial " << trial;
  EXPECT_EQ(eager.cell_bounds, 0u) << "trial " << trial;
}

void expect_same_neighbors(const std::vector<Neighbor>& found,
                           const std::vector<Neighbor>& expected, int trial) {
  ASSERT_EQ(found.size(), expected.size()) << "trial " << trial;
  for (std::size_t i = 0; i < found.size(); ++i) {
    EXPECT_EQ(found[i].index, expected[i].index) << "trial " << trial;
    EXPECT_EQ(found[i].stretch, expected[i].stretch) << "trial " << trial;
  }
}

void expect_same_known(const std::vector<KnownStretch>& found,
                       const std::vector<KnownStretch>& expected, int trial) {
  ASSERT_EQ(found.size(), expected.size()) << "trial " << trial;
  for (std::size_t i = 0; i < found.size(); ++i) {
    EXPECT_EQ(found[i].id, expected[i].id) << "trial " << trial;
    EXPECT_EQ(found[i].value, expected[i].value) << "trial " << trial;
    EXPECT_EQ(found[i].exact, expected[i].exact) << "trial " << trial;
  }
}

TEST(Nearest, SeededLatticeSweepMatchesFullScan) {
  // Lattice fingerprints, so many candidates tie at the same stretch while
  // rounding gives them different bounds; a few candidates are empty
  // (stretch 0 to anything).  Start times spread over several slots, so
  // the search runs the whole box -> slot -> exact cascade.  For 1, 2 and
  // 4 neighbours, with and without a skipped index, it must return the
  // full scan's first entries bit for bit, do the eager cascade's work,
  // and still skip the distant candidates.
  util::Xoshiro256 rng{411};
  const std::vector<std::size_t> counts{1, 2, 4};
  SearchTally tally;
  SearchTally eager_tally;
  std::uint64_t candidates = 0;
  std::uint64_t made = 0;
  std::size_t multi_slot = 0;
  std::size_t empty = 0;
  std::vector<int> decisive_ties(counts.size(), 0);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<cdr::Fingerprint> groups;
    std::vector<NodeBounds> bounds;
    const std::uint64_t count = 2 + util::uniform_index(rng, 30);
    made += count;
    for (std::uint64_t g = 0; g < count; ++g) {
      const auto size = static_cast<std::uint32_t>(
          2 + util::uniform_index(rng, 3));
      groups.push_back(lattice_fingerprint(
          rng, size, static_cast<cdr::UserId>(10 * (g + 1))));
      bounds.push_back(node_bounds(groups.back()));
      if (bounds.back().slots.slots.size() > 1) ++multi_slot;
      if (groups.back().empty()) ++empty;
    }
    const cdr::Fingerprint leftover = lattice_fingerprint(rng, 1, 0);
    const NodeBounds own = node_bounds(leftover);
    const auto cascade_bound = [&](std::size_t g) {
      return std::max(stretch_lower_bound(own.box, bounds[g].box, {}),
                      slot_lower_bound(own.slots, bounds[g].slots, {}));
    };

    const CandidateGrid grid{bounds};
    const std::vector<std::uint32_t> ids = every_id(groups.size());
    const auto skipped =
        static_cast<std::uint32_t>(util::uniform_index(rng, groups.size()));
    using Skip = std::optional<std::uint32_t>;
    for (const Skip skip : {Skip{}, Skip{skipped}}) {
      const std::vector<Neighbor> scan = full_scan(leftover, groups, skip, ids);
      for (std::size_t which = 0; which < counts.size(); ++which) {
        const std::size_t wanted = counts[which];
        SearchTally one;
        SearchTally eager;
        const std::vector<Neighbor> found = nearest(
            leftover, own, groups, bounds, grid, {}, wanted, skip, &one);
        const std::vector<Neighbor> expected = test::eager_nearest(
            leftover, own, groups, bounds, ids, {}, wanted, skip, &eager);
        ASSERT_EQ(found.size(), std::min(wanted, scan.size()))
            << "trial " << trial;
        for (std::size_t i = 0; i < found.size(); ++i) {
          EXPECT_EQ(found[i].index, scan[i].index) << "trial " << trial;
          EXPECT_EQ(found[i].stretch, scan[i].stretch) << "trial " << trial;
        }
        expect_same_neighbors(found, expected, trial);
        expect_same_cascade(one, eager, trial);
        tally += one;
        eager_tally += eager;
        candidates += scan.size();

        // A tie is decisive when a candidate left out ties the last one
        // kept with a strictly lower cascade bound: visiting by bound
        // alone would keep it instead.
        const Neighbor& last = scan[found.size() - 1];
        for (std::size_t i = found.size(); i < scan.size(); ++i) {
          if (scan[i].stretch == last.stretch &&
              cascade_bound(scan[i].index) < cascade_bound(last.index)) {
            ++decisive_ties[which];
            break;
          }
        }
      }
    }
  }
  EXPECT_LT(tally.evaluations, candidates);
  EXPECT_GT(tally.slot_bounds, 0u);
  EXPECT_GT(tally.sample_pairs, 0u);
  EXPECT_GT(tally.cell_bounds, 0u);
  EXPECT_LT(tally.box_bounds, eager_tally.box_bounds);
  EXPECT_GT(multi_slot, made / 2);
  EXPECT_GT(empty, 0u);
  for (std::size_t which = 0; which < counts.size(); ++which) {
    EXPECT_GT(decisive_ties[which], 0) << "count " << counts[which];
  }
}

TEST(Nearest, KnownValuesKeepTheResultAndSpareTheWork) {
  // GLOVE's greedy loop searches from one node again and again as its
  // candidates merge away, keeping the values each search computed.  Over
  // a shrinking grid, a search given those values must return what a
  // fresh search returns, with no more work, and keep exactly the values
  // the eager cascade keeps: the candidates still in the grid, ascending
  // by id, each slot bound at most the exact stretch and each exact value
  // the stretch itself.
  util::Xoshiro256 rng{97};
  const auto lattice = [&](std::uint64_t steps, double step) {
    const auto i = static_cast<double>(util::uniform_index(rng, 2 * steps + 1));
    return (i - static_cast<double>(steps)) * step;
  };
  const auto random_fingerprint = [&](cdr::UserId user) {
    std::vector<cdr::Sample> samples;
    const std::uint64_t count = 1 + util::uniform_index(rng, 4);
    for (std::uint64_t i = 0; i < count; ++i) {
      samples.push_back(cell(lattice(4, 1'000.0), lattice(4, 1'000.0),
                             60.0 * (6.0 + lattice(6, 1.0))));
    }
    return cdr::Fingerprint{user, std::move(samples)};
  };

  std::uint64_t fresh_evaluations = 0;
  std::uint64_t known_evaluations = 0;
  std::uint64_t exact_known = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<cdr::Fingerprint> candidates;
    const std::uint64_t count = 2 + util::uniform_index(rng, 40);
    for (std::uint64_t c = 0; c < count; ++c) {
      candidates.push_back(random_fingerprint(static_cast<cdr::UserId>(c + 1)));
    }
    const std::vector<NodeBounds> bounds = node_bounds_of(candidates);
    const cdr::Fingerprint fp = random_fingerprint(0);
    const NodeBounds own = node_bounds(fp);
    CandidateGrid grid{bounds};
    std::vector<std::uint32_t> ids = every_id(candidates.size());
    std::vector<KnownStretch> known;
    std::vector<KnownStretch> eager_known;
    while (!ids.empty()) {
      SearchTally fresh;
      SearchTally reused;
      SearchTally eager;
      const std::vector<Neighbor> expected = nearest(
          fp, own, candidates, bounds, grid, {}, 1, std::nullopt, &fresh);
      const std::vector<Neighbor> found =
          nearest(fp, own, candidates, bounds, grid, {}, 1, std::nullopt,
                  &reused, &known);
      const std::vector<Neighbor> eager_found =
          test::eager_nearest(fp, own, candidates, bounds, ids, {}, 1,
                              std::nullopt, &eager, &eager_known);
      ASSERT_EQ(found.size(), 1u) << "trial " << trial;
      expect_same_neighbors(found, expected, trial);
      expect_same_neighbors(found, eager_found, trial);
      expect_same_cascade(reused, eager, trial);
      expect_same_known(known, eager_known, trial);
      EXPECT_LE(reused.evaluations, fresh.evaluations) << "trial " << trial;
      EXPECT_LE(reused.slot_bounds, fresh.slot_bounds) << "trial " << trial;
      fresh_evaluations += fresh.evaluations;
      known_evaluations += reused.evaluations;
      for (std::size_t i = 0; i < known.size(); ++i) {
        const KnownStretch& value = known[i];
        EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), value.id));
        if (i > 0) {
          EXPECT_LT(known[i - 1].id, value.id);
        }
        const double stretch =
            fingerprint_stretch(fp, candidates[value.id], {});
        if (value.exact) {
          EXPECT_EQ(value.value, stretch);
          ++exact_known;
        } else {
          EXPECT_LE(value.value, stretch);
        }
      }
      // The nearest candidate merges away, and so does a random other.
      std::vector<std::uint32_t> gone{
          static_cast<std::uint32_t>(found[0].index)};
      std::erase(ids, gone[0]);
      if (!ids.empty()) {
        const auto other =
            ids.begin() + static_cast<std::ptrdiff_t>(
                              util::uniform_index(rng, ids.size()));
        gone.push_back(*other);
        ids.erase(other);
      }
      for (const std::uint32_t id : gone) grid.erase(id);
    }
  }
  EXPECT_GT(exact_known, 0u);
  EXPECT_LT(known_evaluations, fresh_evaluations);
}

TEST(Nearest, RejectsEmptyOrMisalignedCandidates) {
  const cdr::Fingerprint fp{0u, {cell(0, 0, 0)}};
  const NodeBounds own = node_bounds(fp);
  const std::vector<cdr::Fingerprint> one{fp};
  const std::vector<NodeBounds> one_bounds{own};
  const CandidateGrid grid{one_bounds};
  CandidateGrid emptied{one_bounds};
  emptied.erase(0);
  EXPECT_THROW((void)nearest(fp, own, one, one_bounds, emptied, {}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)nearest(fp, own, one, {}, grid, {}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)nearest(fp, own, one, one_bounds, grid, {}, 0),
               std::invalid_argument);
  const std::vector<NodeBounds> two_bounds{own, own};
  const CandidateGrid past{two_bounds};
  EXPECT_THROW((void)nearest(fp, own, one, one_bounds, past, {}, 1),
               std::invalid_argument);
  // Only the candidate itself, skipped: nothing to return.
  EXPECT_TRUE(nearest(fp, own, one, one_bounds, grid, {}, 1, 0u).empty());
}

TEST(CandidateGrid, RejectsBadIds) {
  const std::vector<NodeBounds> bounds{node_bounds(
      cdr::Fingerprint{0u, {cell(0, 0, 0)}})};
  const std::vector<std::uint32_t> past{1};
  EXPECT_THROW((CandidateGrid{bounds, past}), std::invalid_argument);
  CandidateGrid grid{bounds};
  EXPECT_TRUE(grid.contains(0));
  EXPECT_FALSE(grid.contains(1));
  EXPECT_THROW(grid.insert(0, bounds[0].box), std::invalid_argument);
  EXPECT_THROW(grid.widen(1, bounds[0].box), std::invalid_argument);
  grid.erase(0);
  EXPECT_FALSE(grid.contains(0));
  EXPECT_EQ(grid.size(), 0u);
}

TEST(CandidateGrid, CentresAtTheEdgesOfTheDoubleRangeStillSearchExactly) {
  // Centres at (+-1.5e308, +-1.5e308): the centres' extent overflows to
  // infinity on both axes, so the grid shape divides infinity by infinity.
  // No out-of-range cast may come of it (the sanitizer build checks
  // float-cast-overflow), and every search still finds what the eager
  // cascade finds.
  std::vector<cdr::Fingerprint> candidates;
  for (const double x : {1.5e308, -1.5e308}) {
    for (const double y : {1.5e308, -1.5e308}) {
      candidates.emplace_back(static_cast<cdr::UserId>(candidates.size()),
                              std::vector<cdr::Sample>{cell(x, y, 0)});
    }
  }
  const std::vector<NodeBounds> bounds = node_bounds_of(candidates);
  const CandidateGrid grid{bounds};
  ASSERT_EQ(grid.size(), candidates.size());
  const std::vector<std::uint32_t> ids = every_id(candidates.size());
  for (std::uint32_t i = 0; i < candidates.size(); ++i) {
    SearchTally tally;
    SearchTally eager;
    const std::vector<Neighbor> found = nearest(
        candidates[i], bounds[i], candidates, bounds, grid, {}, 3, i, &tally);
    const std::vector<Neighbor> expected = test::eager_nearest(
        candidates[i], bounds[i], candidates, bounds, ids, {}, 3, i, &eager);
    expect_same_neighbors(found, expected, static_cast<int>(i));
    expect_same_cascade(tally, eager, static_cast<int>(i));
    EXPECT_EQ(found.size(), 3u);
  }
}

TEST(CandidateGrid, SearchDoesTheEagerCascadesWorkAsTheGridChanges) {
  // Grids over a random part of the candidates, then changed the ways
  // their users change them: members inserted after the build, some far
  // outside its extent; members widened by a merge (leftover absorption,
  // incremental joins); members erased (the greedy loop).  Every search,
  // for 1, 2 and 4 neighbours, with and without a skipped member and an
  // id limit, must return the eager cascade's neighbours and do its
  // slot, exact and sample-pair work exactly.
  util::Xoshiro256 rng{2207};
  const MergeOptions options;
  const std::vector<std::size_t> counts{1, 2, 4};
  SearchTally tally;
  SearchTally eager_tally;
  std::size_t searches = 0;
  std::size_t inserted_outside = 0;
  std::size_t widened = 0;
  std::size_t limited = 0;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<cdr::Fingerprint> candidates;
    const std::uint64_t n = 2 + util::uniform_index(rng, 80);
    for (std::uint64_t c = 0; c < n; ++c) {
      candidates.push_back(lattice_fingerprint(
          rng, static_cast<std::uint32_t>(1 + util::uniform_index(rng, 3)),
          static_cast<cdr::UserId>(10 * (c + 1))));
    }
    std::vector<NodeBounds> bounds = node_bounds_of(candidates);
    std::vector<std::uint32_t> ids;
    for (std::uint32_t c = 0; c < n; ++c) {
      if (c == 0 || util::uniform_index(rng, 4) != 0) ids.push_back(c);
    }
    CandidateGrid grid{bounds, ids};

    // Inserted later: half of them 100-300 km out, past any extent the
    // lattice gives.
    const std::uint64_t later = util::uniform_index(rng, 8);
    for (std::uint64_t i = 0; i < later; ++i) {
      const auto id = static_cast<std::uint32_t>(candidates.size());
      cdr::Fingerprint fp = lattice_fingerprint(rng, 2, 10 * (id + 1));
      if (util::uniform_index(rng, 2) == 0) {
        const double out = util::uniform(rng, 100'000.0, 300'000.0);
        fp = test::group_fingerprint(
            2, 10 * (id + 1),
            {cell(out, -out / 2, 360.0), cell(out, 0, 600.0)});
        ++inserted_outside;
      }
      candidates.push_back(std::move(fp));
      bounds.push_back(node_bounds(candidates.back()));
      grid.insert(id, bounds.back().box);
      ids.push_back(id);
    }
    // Widened: a member absorbs another fingerprint and keeps its cell.
    const std::uint64_t widen = util::uniform_index(rng, 4);
    for (std::uint64_t i = 0; i < widen; ++i) {
      const std::uint32_t g = ids[util::uniform_index(rng, ids.size())];
      const cdr::Fingerprint other = lattice_fingerprint(rng, 1, 5);
      candidates[g] = merge_fingerprints(candidates[g], other, options);
      bounds[g] = node_bounds(candidates[g]);
      grid.widen(g, bounds[g].box);
      ++widened;
    }
    // Erased: merged away.
    const std::uint64_t erase = util::uniform_index(rng, ids.size());
    for (std::uint64_t i = 0; i < erase && ids.size() > 1; ++i) {
      const auto at = ids.begin() + static_cast<std::ptrdiff_t>(
                                        util::uniform_index(rng, ids.size()));
      grid.erase(*at);
      ids.erase(at);
    }
    ASSERT_EQ(grid.size(), ids.size());

    for (int query = 0; query < 3; ++query) {
      const cdr::Fingerprint fp = lattice_fingerprint(
          rng, static_cast<std::uint32_t>(1 + util::uniform_index(rng, 3)), 1);
      const NodeBounds own = node_bounds(fp);
      const std::uint32_t skipped = ids[util::uniform_index(rng, ids.size())];
      const std::uint32_t limit = ids[util::uniform_index(rng, ids.size())];
      using Skip = std::optional<std::uint32_t>;
      for (const Skip skip : {Skip{}, Skip{skipped}}) {
        for (const std::uint32_t below :
             {std::numeric_limits<std::uint32_t>::max(), limit}) {
          std::vector<std::uint32_t> scope;
          for (const std::uint32_t id : ids) {
            if (id < below && id != skip) scope.push_back(id);
          }
          if (below == limit) ++limited;
          for (const std::size_t wanted : counts) {
            SearchTally one;
            const std::vector<Neighbor> found =
                nearest(fp, own, candidates, bounds, grid, {}, wanted, skip,
                        &one, nullptr, below);
            if (scope.empty()) {
              EXPECT_TRUE(found.empty()) << "trial " << trial;
              continue;
            }
            SearchTally eager;
            const std::vector<Neighbor> expected = test::eager_nearest(
                fp, own, candidates, bounds, scope, {}, wanted, std::nullopt,
                &eager);
            expect_same_neighbors(found, expected, trial);
            expect_same_cascade(one, eager, trial);
            tally += one;
            eager_tally += eager;
            ++searches;
          }
        }
      }
    }
  }
  EXPECT_GT(searches, 2'000u);
  EXPECT_GT(inserted_outside, 50u);
  EXPECT_GT(widened, 50u);
  EXPECT_GT(limited, 100u);
  EXPECT_GT(tally.evaluations, 0u);
  EXPECT_LT(tally.box_bounds, eager_tally.box_bounds);
}

TEST(CandidateGrid, ShrinkingOpenSetWithKnownDoesTheEagerCascadesWork) {
  // The greedy loop's use: node x searches the open nodes older than it,
  // keeping its values across searches, while nodes merge away and merged
  // nodes join the grid.  Each search must return the eager cascade's
  // neighbour over the same open nodes, do its work exactly and keep the
  // same values.
  util::Xoshiro256 rng{2209};
  const MergeOptions options;
  std::size_t searches = 0;
  std::size_t reused = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<cdr::Fingerprint> nodes;
    const std::uint64_t n = 4 + util::uniform_index(rng, 60);
    for (std::uint64_t c = 0; c < n; ++c) {
      nodes.push_back(lattice_fingerprint(
          rng, 1 + static_cast<std::uint32_t>(util::uniform_index(rng, 2)),
          static_cast<cdr::UserId>(10 * (c + 1))));
    }
    std::vector<NodeBounds> bounds = node_bounds_of(nodes);
    std::vector<std::uint32_t> open = every_id(nodes.size());
    CandidateGrid grid{bounds, open};
    std::vector<std::vector<KnownStretch>> known(nodes.size());
    std::vector<std::vector<KnownStretch>> eager_known(nodes.size());
    while (open.size() >= 2) {
      // A node with older open nodes searches them.
      const std::uint32_t x =
          open[1 + util::uniform_index(rng, open.size() - 1)];
      const std::vector<std::uint32_t> older{
          open.begin(), std::lower_bound(open.begin(), open.end(), x)};
      if (!known[x].empty()) ++reused;
      SearchTally one;
      SearchTally eager;
      const std::vector<Neighbor> found =
          nearest(nodes[x], bounds[x], nodes, bounds, grid, {}, 1,
                  std::nullopt, &one, &known[x], x);
      const std::vector<Neighbor> expected =
          test::eager_nearest(nodes[x], bounds[x], nodes, bounds, older, {}, 1,
                              std::nullopt, &eager, &eager_known[x]);
      expect_same_neighbors(found, expected, trial);
      expect_same_cascade(one, eager, trial);
      expect_same_known(known[x], eager_known[x], trial);
      ++searches;
      ASSERT_EQ(found.size(), 1u);
      // Half the time x merges with its nearest older node into a new
      // open node; otherwise a random open node merges away alone.
      if (util::uniform_index(rng, 2) == 0) {
        const auto y = static_cast<std::uint32_t>(found[0].index);
        const auto m = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back(merge_fingerprints(nodes[y], nodes[x], options));
        bounds.push_back(node_bounds(nodes.back()));
        known.emplace_back();
        eager_known.emplace_back();
        for (const std::uint32_t id : {x, y}) {
          grid.erase(id);
          std::erase(open, id);
        }
        grid.insert(m, bounds[m].box);
        open.push_back(m);
      } else {
        const std::uint32_t gone = open[util::uniform_index(rng, open.size())];
        grid.erase(gone);
        std::erase(open, gone);
      }
    }
  }
  EXPECT_GT(searches, 500u);
  EXPECT_GT(reused, 100u);
}

TEST(CandidateGrid, GreedySeededAndNewNodeKeysEqualTheEagerLeastBoxBound) {
  // GLOVE seeds node x's key with the least box bound to the open nodes
  // before it, and a merged node's key with the least box bound to every
  // open node: both are least_box_bound queries on its grid, and must
  // equal a scan of those nodes bit for bit, while bounding far fewer
  // boxes than the n(n-1)/2 pairs.
  // Even trials are lattice fingerprints (ties, empty groups, all in a
  // few cells); odd ones users around homes spread over 60 km, where the
  // grid's cut is counted.
  util::Xoshiro256 rng{2211};
  const MergeOptions options;
  const auto around_home = [&](cdr::UserId user) {
    const double home_x = util::uniform(rng, 0.0, 60'000.0);
    const double home_y = util::uniform(rng, 0.0, 60'000.0);
    std::vector<cdr::Sample> samples;
    const std::uint64_t count = 1 + util::uniform_index(rng, 5);
    for (std::uint64_t i = 0; i < count; ++i) {
      samples.push_back(cell(home_x + util::uniform(rng, -1'500.0, 1'500.0),
                             home_y + util::uniform(rng, -1'500.0, 1'500.0),
                             std::floor(util::uniform(rng, 0.0, 1'440.0))));
    }
    std::sort(samples.begin(), samples.end(),
              [](const cdr::Sample& x, const cdr::Sample& y) {
                return x.tau.t < y.tau.t;
              });
    return cdr::Fingerprint{user, std::move(samples)};
  };
  std::uint64_t pairs = 0;
  std::uint64_t seeded = 0;
  std::uint64_t keyed = 0;
  SearchTally tally;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<cdr::Fingerprint> nodes;
    const std::uint64_t n = 50 + util::uniform_index(rng, 350);
    for (std::uint64_t c = 0; c < n; ++c) {
      const auto user = static_cast<cdr::UserId>(10 * c);
      nodes.push_back(trial % 2 == 0 ? lattice_fingerprint(rng, 2, user)
                                     : around_home(user));
    }
    SearchTally trial_tally;
    std::vector<NodeBounds> bounds = node_bounds_of(nodes);
    std::vector<std::uint32_t> open = every_id(nodes.size());
    const CandidateGrid seeding{bounds, open};
    for (std::size_t row = 1; row < open.size(); ++row) {
      const std::uint32_t x = open[row];
      const double key = seeding.least_box_bound(bounds[x].box, bounds, {}, x,
                                                 &trial_tally);
      const double expected = test::eager_least_box_bound(
          bounds[x].box, bounds, std::span{open}.first(row), {});
      EXPECT_EQ(std::bit_cast<std::uint64_t>(key),
                std::bit_cast<std::uint64_t>(expected))
          << "trial " << trial << " node " << x;
      ++seeded;
    }
    CandidateGrid grid = seeding;
    while (open.size() >= 3) {
      const std::uint32_t a = open[util::uniform_index(rng, open.size())];
      std::erase(open, a);
      const std::uint32_t b = open[util::uniform_index(rng, open.size())];
      std::erase(open, b);
      grid.erase(a);
      grid.erase(b);
      const auto m = static_cast<std::uint32_t>(nodes.size());
      nodes.push_back(merge_fingerprints(nodes[a], nodes[b], options));
      bounds.push_back(node_bounds(nodes.back()));
      const double key =
          grid.least_box_bound(bounds[m].box, bounds, {}, m, &trial_tally);
      const double expected =
          test::eager_least_box_bound(bounds[m].box, bounds, open, {});
      EXPECT_EQ(std::bit_cast<std::uint64_t>(key),
                std::bit_cast<std::uint64_t>(expected))
          << "trial " << trial << " node " << m;
      ++keyed;
      grid.insert(m, bounds[m].box);
      open.push_back(m);
    }
    if (trial % 2 == 1) {
      // The seeding's pairs and every merged node's pairs to the open set.
      pairs += n * (n - 1) / 2 + (n / 2) * (n / 2);
      tally += trial_tally;
    }
  }
  EXPECT_GT(seeded, 1'000u);
  EXPECT_GT(keyed, 500u);
  EXPECT_GT(tally.cell_bounds, 0u);
  EXPECT_LT(tally.box_bounds, pairs / 4);
}

TEST(LocalitySortKey, ClampsEachAxisToTheKeyRange) {
  // Each axis is the box centre in km plus 10^6, truncated.  A finite
  // centre can lie past the uint32 range (1e300 m, or the 5e21 m centre of
  // the glovebin suite's dy = 1e22 box); its axis clamps to the edge cell
  // instead of reaching an out-of-range cast, and in-range keys keep
  // their values.
  const auto key = [](double x, double dx, double y, double dy) {
    FingerprintBounds bounds;
    bounds.box = cdr::SpatialExtent{x, dx, y, dy};
    bounds.interval = cdr::TemporalExtent{0.0, 1.0};
    return locality_sort_key(bounds);
  };
  constexpr std::uint32_t kOrigin = 1'000'000;
  constexpr std::uint32_t kTop = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(key(-50.0, 100.0, -50.0, 100.0),
            geo::morton_interleave(kOrigin, kOrigin));
  EXPECT_EQ(key(2'400.0, 200.0, -1'600.0, 200.0),
            geo::morton_interleave(kOrigin + 2, kOrigin - 2));
  EXPECT_EQ(key(1e300, 100.0, -50.0, 100.0),
            geo::morton_interleave(kTop, kOrigin));
  EXPECT_EQ(key(-1e300, 100.0, -50.0, 100.0),
            geo::morton_interleave(0, kOrigin));
  EXPECT_EQ(key(-50.0, 100.0, 0.3, 1e22),
            geo::morton_interleave(kOrigin, kTop));
  // A width that overflows to infinity puts the centre there.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(key(-1.5e308, inf, -50.0, 100.0),
            geo::morton_interleave(kTop, kOrigin));
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

}  // namespace
}  // namespace glove::core
