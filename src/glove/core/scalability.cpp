#include "glove/core/scalability.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "glove/geo/geo.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {
namespace {

/// `per_fingerprint` of every fingerprint, computed in parallel.
template <typename Result, typename PerFingerprint>
std::vector<Result> map_in_parallel(
    std::span<const cdr::Fingerprint> fingerprints,
    const PerFingerprint& per_fingerprint) {
  std::vector<Result> results(fingerprints.size());
  util::parallel_for(
      fingerprints.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          results[i] = per_fingerprint(fingerprints[i]);
        }
      },
      /*min_chunk=*/64);
  return results;
}

}  // namespace

FingerprintBounds fingerprint_bounds(const cdr::Fingerprint& fp) {
  FingerprintBounds bounds;
  if (fp.empty()) {
    bounds.empty = true;
    return bounds;
  }
  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -x_lo;
  double y_lo = x_lo;
  double y_hi = -x_lo;
  double t_lo = x_lo;
  double t_hi = -x_lo;
  for (const cdr::Sample& s : fp.samples()) {
    x_lo = std::min(x_lo, s.sigma.x);
    x_hi = std::max(x_hi, s.sigma.x_end());
    y_lo = std::min(y_lo, s.sigma.y);
    y_hi = std::max(y_hi, s.sigma.y_end());
    t_lo = std::min(t_lo, s.tau.t);
    t_hi = std::max(t_hi, s.tau.t_end());
  }
  bounds.box = cdr::SpatialExtent{x_lo, x_hi - x_lo, y_lo, y_hi - y_lo};
  bounds.interval = cdr::TemporalExtent{t_lo, t_hi - t_lo};
  return bounds;
}

std::vector<FingerprintBounds> bounds_of(
    std::span<const cdr::Fingerprint> fingerprints) {
  return map_in_parallel<FingerprintBounds>(fingerprints, fingerprint_bounds);
}

namespace {

/// Axis gap between two 1-D intervals (0 when they overlap).
double axis_gap(double lo_a, double hi_a, double lo_b, double hi_b) {
  if (hi_a < lo_b) return lo_b - hi_a;
  if (hi_b < lo_a) return lo_a - hi_b;
  return 0.0;
}

/// Upper end of a bounding interval stored as (lo, len).  fingerprint_bounds
/// keeps the exact lowest sample edge but only the rounded length, so
/// lo + len can land below the highest sample edge by up to about
/// 2^-53 * (|len| + |lo + len|) — an absolute error that a relative margin
/// on a tiny gap cannot absorb.  Padding by 2^-50 of that sum puts the end
/// back at or above every sample edge the interval covers.
double upper_end(double lo, double len) {
  const double hi = lo + len;
  return hi + 0x1p-50 * (std::abs(len) + std::abs(hi));
}

/// Relative margin of stretch_lower_bound.  In exact arithmetic the gap
/// bound never exceeds any sample pair's stretch, but fingerprint_stretch
/// rounds differently: the pair weights wa + wb need not sum to 1, each
/// sample term rounds its own sums, and eq. 10 sums and averages n
/// per-sample terms.  On these non-negative values every step adds a
/// relative error of at most 2^-53, about n + 20 steps in all, so scaling
/// the bound by 1 - 2^-30 keeps it at or below the computed stretch for
/// fingerprints of up to ~2^22 samples.
constexpr double kRoundingMargin = 1.0 - 0x1p-30;

/// The box-gap term of both bounds, before the rounding margin: what
/// merging a sample inside one rectangle and interval with a sample inside
/// another costs at least, given the gaps between them.
double gap_term(double gap_x, double gap_y, double gap_t) {
  const double phi_sigma = std::min((gap_x + gap_y) / kPhiMaxSigmaM, 1.0);
  const double phi_tau = std::min(gap_t / kPhiMaxTauMin, 1.0);
  return kWSigma * phi_sigma + kWTau * phi_tau;
}

double slot_gap(const TimeSlot& a, const TimeSlot& b) {
  return gap_term(axis_gap(a.x_lo, a.x_hi, b.x_lo, b.x_hi),
                  axis_gap(a.y_lo, a.y_hi, b.y_lo, b.y_hi),
                  axis_gap(a.t_lo, a.t_hi, b.t_lo, b.t_hi));
}

/// One direction of slot_lower_bound: for each slot of `outer`, its count
/// times the least slot_gap to a slot of `inner`, summed and averaged over
/// `outer`'s samples.
double directed_slot_bound(const SlotSummary& outer, const SlotSummary& inner) {
  double total = 0.0;
  for (const TimeSlot& s : outer.slots) {
    double best = std::numeric_limits<double>::infinity();
    for (const TimeSlot& u : inner.slots) {
      best = std::min(best, slot_gap(s, u));
    }
    total += static_cast<double>(s.count) * best;
  }
  return total / static_cast<double>(outer.samples);
}

}  // namespace

SlotSummary slot_summary(const cdr::Fingerprint& fp) {
  // Samples are sorted by start time, so each slot's samples are one run.
  const auto slot_of = [](const cdr::Sample& s) {
    return std::floor(s.tau.t / kSlotMinutes);
  };
  const std::span<const cdr::Sample> samples = fp.samples();
  SlotSummary summary;
  summary.samples = samples.size();
  std::size_t runs = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (i == 0 || slot_of(samples[i]) != slot_of(samples[i - 1])) ++runs;
  }
  summary.slots.reserve(runs);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const cdr::Sample& s = samples[i];
    if (i == 0 || slot_of(s) != slot_of(samples[i - 1])) {
      summary.slots.push_back(TimeSlot{s.sigma.x, s.sigma.x_end(), s.sigma.y,
                                       s.sigma.y_end(), s.tau.t, s.tau.t_end(),
                                       0});
    }
    TimeSlot& slot = summary.slots.back();
    slot.x_lo = std::min(slot.x_lo, s.sigma.x);
    slot.x_hi = std::max(slot.x_hi, s.sigma.x_end());
    slot.y_lo = std::min(slot.y_lo, s.sigma.y);
    slot.y_hi = std::max(slot.y_hi, s.sigma.y_end());
    slot.t_hi = std::max(slot.t_hi, s.tau.t_end());
    ++slot.count;
  }
  return summary;
}

double slot_lower_bound(const SlotSummary& a, const SlotSummary& b) {
  // eq. 10's choice of direction, and fingerprint_stretch's average at
  // equal sample counts.  kRoundingMargin covers the rounding of eq. 10
  // as in stretch_lower_bound; the per-slot products and the sum here add
  // about S + 2 relative steps of 2^-53, far inside it.
  if (a.samples == 0 || b.samples == 0) return 0.0;
  double bound = 0.0;
  if (a.samples > b.samples) {
    bound = directed_slot_bound(a, b);
  } else if (b.samples > a.samples) {
    bound = directed_slot_bound(b, a);
  } else {
    bound = (directed_slot_bound(a, b) + directed_slot_bound(b, a)) / 2.0;
  }
  return bound * kRoundingMargin;
}

NodeBounds node_bounds(const cdr::Fingerprint& fp) {
  return NodeBounds{fingerprint_bounds(fp), slot_summary(fp)};
}

std::vector<NodeBounds> node_bounds_of(
    std::span<const cdr::Fingerprint> fingerprints) {
  return map_in_parallel<NodeBounds>(fingerprints, node_bounds);
}

std::uint64_t locality_sort_key(const FingerprintBounds& bounds) noexcept {
  // 1 km quantization of the bounding-box centre, offset to keep values
  // positive and clamped to uint32 (NaN to 0), then Morton-interleaved.
  const auto quantize = [](double v) {
    constexpr auto kTop =
        static_cast<double>(std::numeric_limits<std::uint32_t>::max());
    const double q = v / 1'000.0 + 1'000'000.0;
    return static_cast<std::uint32_t>(std::min(std::max(0.0, q), kTop));
  };
  const std::uint32_t qx = quantize(bounds.box.x + bounds.box.dx / 2);
  const std::uint32_t qy = quantize(bounds.box.y + bounds.box.dy / 2);
  return geo::morton_interleave(qx, qy);
}

double stretch_lower_bound(const FingerprintBounds& a,
                           const FingerprintBounds& b) {
  // Any sample of a lies inside a.box; any sample of b inside b.box.  To
  // merge a pair, each rectangle must grow at least across the gap between
  // the boxes (in the weighted two-direction sum of eq. 4, *both*
  // directions must bridge the gap, so the weighted sum is >= the gap).
  // The padded upper ends and kRoundingMargin keep the bound at or below
  // the *computed* stretch, which is what the greedy loop's heap keys and
  // nearest rely on.  fingerprint_stretch is 0 when either side has no
  // samples.
  if (a.empty || b.empty) return 0.0;
  const double gap_x = axis_gap(a.box.x, upper_end(a.box.x, a.box.dx),
                                b.box.x, upper_end(b.box.x, b.box.dx));
  const double gap_y = axis_gap(a.box.y, upper_end(a.box.y, a.box.dy),
                                b.box.y, upper_end(b.box.y, b.box.dy));
  const double gap_t =
      axis_gap(a.interval.t, upper_end(a.interval.t, a.interval.dt),
               b.interval.t, upper_end(b.interval.t, b.interval.dt));
  return gap_term(gap_x, gap_y, gap_t) * kRoundingMargin;
}

namespace {

/// A bounding geometry's padded ends, as stretch_lower_bound compares them.
struct PaddedBox {
  double x_lo, x_hi, y_lo, y_hi, t_lo, t_hi;
};

PaddedBox padded(const FingerprintBounds& b) {
  return PaddedBox{b.box.x,
                   upper_end(b.box.x, b.box.dx),
                   b.box.y,
                   upper_end(b.box.y, b.box.dy),
                   b.interval.t,
                   upper_end(b.interval.t, b.interval.dt)};
}

/// Cells along one axis of a grid of about `cells` cells over an extent
/// of `along` by `across`, so that the cells come out about square.
std::uint32_t axis_cells(double along, double across, std::size_t cells) {
  const auto most = static_cast<double>(cells);
  if (!(along > 0.0)) return 1;
  if (!(across > 0.0)) return static_cast<std::uint32_t>(most);
  const double split = std::round(std::sqrt(most * along / across));
  // NaN (an infinite extent over an infinite one) takes one cell too.
  if (!(split > 1.0)) return 1;
  return static_cast<std::uint32_t>(std::min(split, most));
}

/// The cell index of `v` along an axis of `cells` cells of `width` from
/// `origin`, clamped to the edge cells (NaN to the first).
std::uint32_t axis_index(double v, double origin, double width,
                         std::uint32_t cells) {
  if (cells == 1) return 0;
  const double index = std::floor((v - origin) / width);
  if (!(index > 0.0)) return 0;
  const auto last = static_cast<double>(cells - 1);
  return index >= last ? cells - 1 : static_cast<std::uint32_t>(index);
}

/// 0, 1, ..., count - 1.
std::vector<std::uint32_t> every_id(std::size_t count) {
  if (count > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"a candidate grid takes fewer than 2^32 ids"};
  }
  std::vector<std::uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  return ids;
}

}  // namespace

CandidateGrid::CandidateGrid(std::span<const NodeBounds> bounds)
    : CandidateGrid(bounds, every_id(bounds.size())) {}

CandidateGrid::CandidateGrid(std::span<const NodeBounds> bounds,
                             std::span<const std::uint32_t> ids) {
  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -x_lo;
  double y_lo = x_lo;
  double y_hi = -x_lo;
  for (const std::uint32_t id : ids) {
    if (id >= bounds.size()) {
      throw std::invalid_argument{"candidate grid: id out of range"};
    }
    const FingerprintBounds& b = bounds[id].box;
    if (b.empty) continue;
    const double cx = b.box.x + b.box.dx / 2;
    const double cy = b.box.y + b.box.dy / 2;
    x_lo = std::min(x_lo, cx);
    x_hi = std::max(x_hi, cx);
    y_lo = std::min(y_lo, cy);
    y_hi = std::max(y_hi, cy);
  }
  if (x_lo <= x_hi) {
    const std::size_t cells =
        std::max<std::size_t>(1, (ids.size() + kGridCellMembers - 1) /
                                     kGridCellMembers);
    const double width = x_hi - x_lo;
    const double height = y_hi - y_lo;
    columns_ = axis_cells(width, height, cells);
    rows_ = height > 0.0 ? static_cast<std::uint32_t>(
                               (cells + columns_ - 1) / columns_)
                         : 1;
    x0_ = x_lo;
    y0_ = y_lo;
    width_ = width / columns_;
    height_ = height / rows_;
  }
  cell_at_.assign(std::size_t{columns_} * rows_, kNoCell);
  for (const std::uint32_t id : ids) insert(id, bounds[id].box);
}

std::uint32_t CandidateGrid::position_of(const FingerprintBounds& box) const {
  if (box.empty) return 0;
  return axis_index(box.box.y + box.box.dy / 2, y0_, height_, rows_) *
             columns_ +
         axis_index(box.box.x + box.box.dx / 2, x0_, width_, columns_);
}

void CandidateGrid::cover(Cell& cell, const FingerprintBounds& box) {
  if (box.empty) {
    cell.holds_empty = true;
    return;
  }
  const PaddedBox p = padded(box);
  cell.x_lo = std::min(cell.x_lo, p.x_lo);
  cell.x_hi = std::max(cell.x_hi, p.x_hi);
  cell.y_lo = std::min(cell.y_lo, p.y_lo);
  cell.y_hi = std::max(cell.y_hi, p.y_hi);
  cell.t_lo = std::min(cell.t_lo, p.t_lo);
  cell.t_hi = std::max(cell.t_hi, p.t_hi);
}

void CandidateGrid::insert(std::uint32_t id, const FingerprintBounds& box) {
  if (id == kNoCell) {
    throw std::invalid_argument{"a candidate grid takes ids below 2^32 - 1"};
  }
  if (contains(id)) {
    throw std::invalid_argument{"candidate grid: id inserted twice"};
  }
  std::uint32_t& slot = cell_at_[position_of(box)];
  if (slot == kNoCell) {
    slot = static_cast<std::uint32_t>(cells_.size());
    cells_.emplace_back();
  }
  Cell& cell = cells_[slot];
  cell.members.insert(
      std::upper_bound(cell.members.begin(), cell.members.end(), id), id);
  cover(cell, box);
  if (cell_of_.size() <= id) cell_of_.resize(std::size_t{id} + 1, kNoCell);
  cell_of_[id] = slot;
  ++size_;
}

void CandidateGrid::erase(std::uint32_t id) {
  if (!contains(id)) return;
  std::vector<std::uint32_t>& members = cells_[cell_of_[id]].members;
  members.erase(std::lower_bound(members.begin(), members.end(), id));
  cell_of_[id] = kNoCell;
  --size_;
}

void CandidateGrid::widen(std::uint32_t id, const FingerprintBounds& box) {
  if (!contains(id)) {
    throw std::invalid_argument{"candidate grid: widening a non-member"};
  }
  cover(cells_[cell_of_[id]], box);
}

CandidateGrid::CellHeap CandidateGrid::cell_heap(const FingerprintBounds& own,
                                                 std::uint32_t below,
                                                 SearchTally& tally) const {
  CellHeap heap;
  heap.reserve(cells_.size());
  const PaddedBox p = padded(own);
  for (std::uint32_t c = 0; c < cells_.size(); ++c) {
    const Cell& cell = cells_[c];
    if (cell.members.empty() || cell.members.front() >= below) continue;
    // stretch_lower_bound against the union: each gap is at most the gap
    // to any member's padded box, and the gap term and margin only keep
    // that order.
    const double bound =
        own.empty || cell.holds_empty
            ? 0.0
            : gap_term(axis_gap(p.x_lo, p.x_hi, cell.x_lo, cell.x_hi),
                       axis_gap(p.y_lo, p.y_hi, cell.y_lo, cell.y_hi),
                       axis_gap(p.t_lo, p.t_hi, cell.t_lo, cell.t_hi)) *
                  kRoundingMargin;
    heap.emplace_back(bound, c);
  }
  tally.cell_bounds += heap.size();
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  return heap;
}

double CandidateGrid::least_box_bound(const FingerprintBounds& own,
                                      std::span<const NodeBounds> bounds,
                                      std::uint32_t below,
                                      SearchTally* tally) const {
  SearchTally done;
  CellHeap cells = cell_heap(own, below, done);
  double least = std::numeric_limits<double>::infinity();
  // A cell whose bound is not below the least so far holds no lower one.
  while (!cells.empty() && cells.front().first < least) {
    std::pop_heap(cells.begin(), cells.end(), std::greater<>{});
    for (const std::uint32_t m : cells_[cells.back().second].members) {
      if (m >= below) break;
      least = std::min(least, stretch_lower_bound(own, bounds[m].box));
      ++done.box_bounds;
    }
    cells.pop_back();
  }
  if (tally != nullptr) *tally += done;
  return least;
}

std::vector<Neighbor> nearest(const cdr::Fingerprint& fp,
                              const NodeBounds& own,
                              std::span<const cdr::Fingerprint> candidates,
                              std::span<const NodeBounds> bounds,
                              const CandidateGrid& grid, std::size_t count,
                              std::optional<std::uint32_t> skip,
                              SearchTally* tally,
                              std::vector<KnownStretch>* known,
                              std::uint32_t below) {
  if (grid.size() == 0 || candidates.size() != bounds.size() || count == 0) {
    throw std::invalid_argument{
        "nearest needs a non-empty candidate grid, one bounds entry per "
        "candidate and a count of at least 1"};
  }
  if (grid.cell_of_.size() > candidates.size() &&
      std::any_of(grid.cell_of_.begin() +
                      static_cast<std::ptrdiff_t>(candidates.size()),
                  grid.cell_of_.end(), [](std::uint32_t cell) {
                    return cell != CandidateGrid::kNoCell;
                  })) {
    throw std::invalid_argument{"nearest: candidate id out of range"};
  }
  const auto considered = [&](std::uint32_t c) {
    return c < below && c != skip;
  };
  // The best candidates so far, ascending by (stretch, index).
  std::vector<Neighbor> best;
  const auto before = [](const Neighbor& x, const Neighbor& y) {
    return std::tie(x.stretch, x.index) < std::tie(y.stretch, y.index);
  };
  const auto keep = [&](const Neighbor& found) {
    best.insert(std::upper_bound(best.begin(), best.end(), found, before),
                found);
    if (best.size() > count) best.pop_back();
  };

  // A min-heap over (bound, id, slot stage) yields the order a full sort
  // would, but only the prefix the search actually visits is ever
  // ordered.  Box-stage candidates come back once with their slot bound.
  // Known values enter at their stage: a slot bound in the heap, an exact
  // stretch straight among the best.  `kept` counts the known values
  // still considered, compacted to the front of `known` in id order.
  std::vector<std::tuple<double, std::uint32_t, bool>> order;
  std::size_t kept = 0;
  if (known != nullptr) {
    for (const KnownStretch value : *known) {
      if (!considered(value.id) || !grid.contains(value.id)) continue;
      (*known)[kept++] = value;
      if (value.exact) {
        keep(Neighbor{value.id, value.value});
      } else {
        order.emplace_back(value.value, value.id, true);
      }
    }
    std::make_heap(order.begin(), order.end(), std::greater<>{});
  }
  const auto is_known = [&](std::uint32_t c) {
    const auto first = known->begin();
    return std::binary_search(
        first, first + static_cast<std::ptrdiff_t>(kept), KnownStretch{0, c},
        [](const KnownStretch& x, const KnownStretch& y) {
          return x.id < y.id;
        });
  };

  SearchTally done;
  // Unopened cells, least bound first.  Every considered candidate with
  // no known value sits in one, with a box bound at or above the cell's.
  CandidateGrid::CellHeap cells = grid.cell_heap(own.box, below, done);
  std::vector<KnownStretch> fresh;  // values computed here, for `known`
  for (;;) {
    // A cell whose bound is at or below the heap's least value might hold
    // a smaller one: it opens first, so every value taken from the heap is
    // the least of all candidates left.
    const bool opens = !cells.empty() &&
                       (order.empty() ||
                        cells.front().first <= std::get<0>(order.front()));
    if (!opens && order.empty()) break;
    // A stretch is never below its bounds: past the count-th best stretch
    // no later candidate can beat or tie it.
    const double least =
        opens ? cells.front().first : std::get<0>(order.front());
    if (best.size() == count && least > best.back().stretch) break;
    if (opens) {
      std::pop_heap(cells.begin(), cells.end(), std::greater<>{});
      for (const std::uint32_t c : grid.cells_[cells.back().second].members) {
        if (c >= below) break;
        if (c == skip || (known != nullptr && is_known(c))) continue;
        order.emplace_back(stretch_lower_bound(own.box, bounds[c].box), c,
                           false);
        std::push_heap(order.begin(), order.end(), std::greater<>{});
        ++done.box_bounds;
      }
      cells.pop_back();
      continue;
    }
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [bound, c, slot_stage] = order.back();
    if (!slot_stage) {
      const double slot =
          std::max(bound, slot_lower_bound(own.slots, bounds[c].slots));
      ++done.slot_bounds;
      if (known != nullptr) fresh.push_back(KnownStretch{slot, c, false});
      order.back() = {slot, c, true};
      std::push_heap(order.begin(), order.end(), std::greater<>{});
      continue;
    }
    order.pop_back();
    const Neighbor found{
        c, fingerprint_stretch(fp, candidates[c], &done.sample_pairs)};
    ++done.evaluations;
    if (known != nullptr) fresh.push_back(KnownStretch{found.stretch, c, true});
    keep(found);
  }

  if (known != nullptr) {
    // Fold this search's values into the kept ones, in a buffer of about
    // the final size.  A stable merge by id puts each id's values in the
    // order they were computed, so the last one of each id is the
    // furthest along the cascade.
    const auto by_id = [](const KnownStretch& x, const KnownStretch& y) {
      return x.id < y.id;
    };
    const auto same_id = [](const KnownStretch& x, const KnownStretch& y) {
      return x.id == y.id;
    };
    std::stable_sort(fresh.begin(), fresh.end(), by_id);
    const auto kept_end = known->begin() + static_cast<std::ptrdiff_t>(kept);
    std::vector<KnownStretch> merged(kept + fresh.size());
    std::merge(known->begin(), kept_end, fresh.begin(), fresh.end(),
               merged.begin(), by_id);
    merged.erase(merged.begin(),
                 std::unique(merged.rbegin(), merged.rend(), same_id).base());
    *known = std::move(merged);
  }
  if (tally != nullptr) *tally += done;
  return best;
}

void add_search_counters(const SearchTally& tally) {
  static const obs::Counter c_cell_bounds =
      obs::counter("core.stretch.cell_bounds");
  static const obs::Counter c_box_bounds =
      obs::counter("core.stretch.box_bounds");
  static const obs::Counter c_sample_pairs =
      obs::counter("core.stretch.sample_pairs");
  if (tally.cell_bounds > 0) c_cell_bounds.add(tally.cell_bounds);
  if (tally.box_bounds > 0) c_box_bounds.add(tally.box_bounds);
  if (tally.sample_pairs > 0) c_sample_pairs.add(tally.sample_pairs);
}

std::vector<std::vector<std::uint32_t>> locality_chunks(
    std::span<const FingerprintBounds> bounds, std::size_t chunk_size,
    std::uint32_t k) {
  if (chunk_size == 0 || chunk_size < k) {
    throw std::invalid_argument{"chunk size must be at least k"};
  }
  if (bounds.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument{"locality_chunks takes fewer than 2^32 items"};
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  keys.reserve(bounds.size());
  for (std::uint32_t p = 0; p < bounds.size(); ++p) {
    keys.emplace_back(locality_sort_key(bounds[p]), p);
  }
  std::sort(keys.begin(), keys.end());

  std::vector<std::vector<std::uint32_t>> chunks;
  for (std::size_t begin = 0; begin < keys.size();) {
    std::size_t end = std::min(begin + chunk_size, keys.size());
    // Never leave a tail smaller than k: extend the last chunk instead.
    if (keys.size() - end < k) end = keys.size();
    std::vector<std::uint32_t>& chunk = chunks.emplace_back();
    chunk.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) chunk.push_back(keys[i].second);
    begin = end;
  }
  return chunks;
}

}  // namespace glove::core
