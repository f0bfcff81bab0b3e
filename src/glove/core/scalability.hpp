// The search machinery of GLOVE's exact greedy merge.  The paper's
// full-scale runs (82k-320k users) took ~60 GPU-hours (Sec. 6.3); the
// sharded strategy (src/glove/shard) bounds the population of one run,
// and locality_chunks, a space-filling-curve cut of bounding-box centres,
// groups its reconcile leftovers.
//
// Two lower bounds keep every exact nearest-neighbour decision cheap, and
// the greedy loop and nearest pass each candidate through them as a
// three-stage cascade, the filter-then-refine order of exact time-series
// search:
//
//   1. box: stretch_lower_bound, from each fingerprint's whole bounding box
//      and time interval (FingerprintBounds).  O(1) per pair, but a
//      multi-day fingerprint's interval spans the whole trace and carries
//      no time information.
//   2. slot: slot_lower_bound, from each fingerprint's SlotSummary — the
//      rectangle, interval and count of the samples starting in each fixed
//      kSlotMinutes slot.  Eq. 10 averages per-sample minima, so for each
//      slot of the fingerprint eq. 10 iterates over, the cheapest box-gap
//      term to any slot of the other, weighted by the slot's count, bounds
//      that slot's share.  O(S_a * S_b) per pair, far below the exact
//      O(m_a * m_b) and far tighter than the box.
//   3. exact: fingerprint_stretch (eq. 10).
//
// The candidates themselves sit in a CandidateGrid, a uniform grid over
// their box centres whose cells carry a bound below every member's box
// bound, so a search computes box bounds only for the members of the cells
// it opens, best first ("distance browsing", Hjaltason & Samet, ACM TODS
// 1999).  GLOVE seeds each node's heap key with one such least-box-bound
// query instead of bounding all |M|^2/2 pairs.
//
// nearest moves a candidate to the next stage only when its current bound
// is the least one left, so most pairs stop at the cell, box or slot stage;
// GLOVE's greedy loop searches from a node only when the node's heap key
// is the least one left.

#ifndef GLOVE_CORE_SCALABILITY_HPP
#define GLOVE_CORE_SCALABILITY_HPP

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "glove/core/glove.hpp"

namespace glove::core {

/// A sound lower bound on fingerprint_stretch(a, b): both fingerprints'
/// bounding geometries must at least bridge the gap between them for any
/// sample pair to merge.  Sound for samples with finite, non-negative
/// extents, which the dataset decoders enforce (cdr::check_sample), and
/// for the positive saturation thresholds and non-negative weights of
/// eq. 1-3, which stretch.hpp asserts of its constants.
struct FingerprintBounds {
  cdr::SpatialExtent box;        ///< spatial bounding rectangle
  cdr::TemporalExtent interval;  ///< temporal bounding interval
  /// No samples (e.g. a group suppression emptied): its stretch to any
  /// fingerprint is 0, so its bound is too.
  bool empty = false;
};

[[nodiscard]] FingerprintBounds fingerprint_bounds(const cdr::Fingerprint& fp);

/// fingerprint_bounds of every fingerprint, computed in parallel.
[[nodiscard]] std::vector<FingerprintBounds> bounds_of(
    std::span<const cdr::Fingerprint> fingerprints);

[[nodiscard]] double stretch_lower_bound(const FingerprintBounds& a,
                                         const FingerprintBounds& b);

/// Width of the fixed time slots of a SlotSummary, in minutes.  One
/// constant, chosen by measurement: narrower slots give a tighter bound
/// but more slot pairs per bound.  On perfbench's city_halo_k2 (4 vCPUs),
/// 60 and 360 minutes cost more CPU time than 120 and 240, and over ten
/// alternating pairs 240 used 9% less CPU time than 120 (lower in 9 of
/// 10, by more than 120's interquartile range) and 1% less peak RSS (10
/// of 10); wall time and serve_replay_k5 did not separate the two.
inline constexpr double kSlotMinutes = 240.0;

/// One slot of a SlotSummary: the samples whose start time t falls in
/// [n, n + 1) * kSlotMinutes for some integer n.  The lower ends are the
/// least sample edges, and the upper ends the largest *computed* x_end(),
/// y_end() and t_end() of the slot's samples — the values eq. 4 and eq. 7
/// compare — so every sample edge lies inside [lo, hi] exactly and the
/// gaps need none of FingerprintBounds' upper-end padding (which exists
/// because a box stores lo + a rounded length).  A sample whose interval
/// runs past the slot's end widens t_hi, never the slot.
struct TimeSlot {
  double x_lo = 0.0;
  double x_hi = 0.0;
  double y_lo = 0.0;
  double y_hi = 0.0;
  double t_lo = 0.0;
  double t_hi = 0.0;
  std::size_t count = 0;  ///< samples starting in the slot
};

/// A fingerprint's samples grouped by start-time slot: one TimeSlot per
/// slot that holds sample starts, in ascending time.
struct SlotSummary {
  std::vector<TimeSlot> slots;
  std::size_t samples = 0;  ///< the fingerprint's sample count
};

[[nodiscard]] SlotSummary slot_summary(const cdr::Fingerprint& fp);

/// A sound lower bound on fingerprint_stretch(a, b) from the two slot
/// summaries, at least as tight as stretch_lower_bound in exact
/// arithmetic.  Following eq. 10, it takes the fingerprint with more
/// samples, sums over its slots the slot's count times the least box-gap
/// term (the stretch_lower_bound formula) to any slot of the other, and
/// divides by its sample count; at equal sample counts it averages both
/// directions.  The result is scaled by stretch_lower_bound's rounding
/// margin, so it stays at or below the *computed* stretch, and it is 0
/// when either side has no samples.
[[nodiscard]] double slot_lower_bound(const SlotSummary& a,
                                      const SlotSummary& b);

/// What the exact GLOVE decisions know of a node before evaluating its
/// stretch: the box and the slot stage of the cascade.
struct NodeBounds {
  FingerprintBounds box;
  SlotSummary slots;
};

[[nodiscard]] NodeBounds node_bounds(const cdr::Fingerprint& fp);

/// node_bounds of every fingerprint, computed in parallel.
[[nodiscard]] std::vector<NodeBounds> node_bounds_of(
    std::span<const cdr::Fingerprint> fingerprints);

/// A candidate found by nearest: its index and exact stretch from the
/// searched fingerprint.
struct Neighbor {
  std::size_t index = 0;
  double stretch = 0.0;
};

/// A cascade value that a nearest search computed for one candidate: its
/// slot-stage bound, or its exact stretch.  A later search from the same
/// fingerprint reuses it instead of computing it again.
struct KnownStretch {
  double value = 0.0;
  std::uint32_t id = 0;  ///< the candidate's index
  bool exact = false;    ///< `value` is the exact stretch, not a bound
};

/// Work counts of nearest searches and least-box-bound queries.
struct SearchTally {
  std::uint64_t cell_bounds = 0;   ///< grid cell bounds computed
  std::uint64_t box_bounds = 0;    ///< member box bounds computed
  std::uint64_t slot_bounds = 0;   ///< box bounds advanced to the slot bound
  std::uint64_t evaluations = 0;   ///< exact stretch evaluations
  std::uint64_t sample_pairs = 0;  ///< sample pairs those evaluations scanned

  SearchTally& operator+=(const SearchTally& other) {
    cell_bounds += other.cell_bounds;
    box_bounds += other.box_bounds;
    slot_bounds += other.slot_bounds;
    evaluations += other.evaluations;
    sample_pairs += other.sample_pairs;
    return *this;
  }
};

/// Members per cell that a CandidateGrid is sized for: it has about one
/// cell per kGridCellMembers candidates.  One constant, chosen by
/// measurement: fewer members per cell bound each search's candidates
/// more tightly but give each search more cells to bound.  On perfbench
/// (4 vCPUs, five runs per value), serve_replay_k5's median cpu time was
/// 0.59 / 0.58 / 0.62 / 0.66 s at 8 / 16 / 32 / 64 members, and
/// city_halo_k2's did not separate the four; on one of serve's 8,000-user
/// replays 16 computed 2.2 M box and 1.4 M cell bounds, 8 computed 1.5 M
/// and 2.0 M.
inline constexpr std::size_t kGridCellMembers = 16;

/// The candidates of nearest searches, kept in a uniform grid over their
/// bounding-box centres.  A cell holds its members' ids in ascending order
/// and the union of their padded boxes and intervals, so the cell's bound
/// (stretch_lower_bound's gap term against that union, with its rounding
/// margin) is at most every member's box bound, bit for bit, and 0 when a
/// member has no samples.  The grid spans the centres it is built over; a
/// member inserted later with its centre outside that span lands in the
/// nearest edge cell and widens it.  A member keeps its cell when widen
/// grows its box, so the cell stays a valid bound however far the
/// member's centre moves.
///
/// The grid stores only ids and cell unions: a search reads each member's
/// bounds from the span it is given, which must hold the boxes the grid
/// was built, inserted or widened with.
class CandidateGrid {
 public:
  /// A grid over every candidate: ids 0..bounds.size() - 1.
  explicit CandidateGrid(std::span<const NodeBounds> bounds);
  /// A grid over the candidates `ids` names, with box bounds[id].box.
  /// Throws std::invalid_argument on an id past `bounds`.
  CandidateGrid(std::span<const NodeBounds> bounds,
                std::span<const std::uint32_t> ids);

  /// Adds candidate `id` (not a member) with bounding geometry `box`.
  void insert(std::uint32_t id, const FingerprintBounds& box);
  /// Removes member `id`; its cell keeps its union.
  void erase(std::uint32_t id);
  /// Grows member `id`'s cell to cover `box`, its grown geometry.
  void widen(std::uint32_t id, const FingerprintBounds& box);

  [[nodiscard]] bool contains(std::uint32_t id) const {
    return id < cell_of_.size() && cell_of_[id] != kNoCell;
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The least stretch_lower_bound(own, bounds[m].box) over the members m
  /// with id < `below`, or infinity when there is none; exactly the least
  /// of a scan of them.  Cells open in ascending bound order until the
  /// next one's bound is no lower than the least found.  A non-null
  /// `tally` counts the cell and box bounds computed.
  [[nodiscard]] double least_box_bound(const FingerprintBounds& own,
                                       std::span<const NodeBounds> bounds,
                                       std::uint32_t below,
                                       SearchTally* tally = nullptr) const;

 private:
  friend std::vector<Neighbor> nearest(
      const cdr::Fingerprint& fp, const NodeBounds& own,
      std::span<const cdr::Fingerprint> candidates,
      std::span<const NodeBounds> bounds, const CandidateGrid& grid,
      std::size_t count, std::optional<std::uint32_t> skip,
      SearchTally* tally, std::vector<KnownStretch>* known,
      std::uint32_t below);

  static constexpr std::uint32_t kNoCell =
      std::numeric_limits<std::uint32_t>::max();

  struct Cell {
    std::vector<std::uint32_t> members;  ///< ascending ids
    /// Union of the members' padded boxes and intervals.
    double x_lo = std::numeric_limits<double>::infinity();
    double x_hi = -std::numeric_limits<double>::infinity();
    double y_lo = std::numeric_limits<double>::infinity();
    double y_hi = -std::numeric_limits<double>::infinity();
    double t_lo = std::numeric_limits<double>::infinity();
    double t_hi = -std::numeric_limits<double>::infinity();
    bool holds_empty = false;  ///< a member has no samples: bound 0
  };

  /// (cell bound, cell), a min-heap of the cells holding a member below
  /// `below`.
  using CellHeap = std::vector<std::pair<double, std::uint32_t>>;
  [[nodiscard]] CellHeap cell_heap(const FingerprintBounds& own,
                                   std::uint32_t below,
                                   SearchTally& tally) const;
  [[nodiscard]] std::uint32_t position_of(const FingerprintBounds& box) const;
  void cover(Cell& cell, const FingerprintBounds& box);

  double x0_ = 0.0;  ///< west edge of the grid's centres
  double y0_ = 0.0;  ///< south edge
  double width_ = 0.0;
  double height_ = 0.0;
  std::uint32_t columns_ = 1;
  std::uint32_t rows_ = 1;
  std::vector<std::uint32_t> cell_at_;  ///< grid position -> cell, or none
  std::vector<Cell> cells_;             ///< the cells that ever held members
  std::vector<std::uint32_t> cell_of_;  ///< id -> its cell, or kNoCell
  std::size_t size_ = 0;
};

/// The `count` candidates nearest to `fp` by fingerprint_stretch among
/// `grid`'s members with id below `below`, other than `skip`, in ascending
/// (stretch, index) order: exactly the first `count` entries of a full
/// scan of them sorted that way, or all of them when fewer remain.  The
/// one k-nearest search of core: GLOVE's greedy loop, the k-gap, leftover
/// absorption and incremental placement all call it.  `own` must be
/// node_bounds(fp), `bounds[c]` node_bounds(candidates[c]), and the grid
/// built over those boxes.
///
/// Candidates are visited in ascending bound order through the box ->
/// slot -> exact cascade: a box bound that comes first is replaced by the
/// larger of it and the slot bound, and a slot bound that comes first is
/// evaluated exactly.  Box bounds are computed a cell at a time: a cell
/// opens (its members' box bounds join the candidates) once its bound is
/// at or below the least candidate value, and a candidate is taken only
/// while its value lies strictly below every unopened cell.  So the
/// candidates are taken in the order a scan that bounds every candidate
/// takes them, and the slot bounds, exact evaluations and result are that
/// scan's.  The search stops at the first bound strictly above the
/// count-th best stretch, so distant candidates are never evaluated
/// exactly and distant cells never opened.
///
/// A non-null `known` holds the values that earlier searches from `fp`
/// computed, ascending by id.  The search takes those values instead of
/// computing them, drops the ones of ids it no longer considers, and adds
/// the ones it computes.  The result is the same with or without it.
///
/// Throws std::invalid_argument when the grid is empty or names an id past
/// the candidates, the spans differ in length or `count` is 0.  A non-null
/// `tally` counts the work done.
[[nodiscard]] std::vector<Neighbor> nearest(
    const cdr::Fingerprint& fp, const NodeBounds& own,
    std::span<const cdr::Fingerprint> candidates,
    std::span<const NodeBounds> bounds, const CandidateGrid& grid,
    std::size_t count, std::optional<std::uint32_t> skip = std::nullopt,
    SearchTally* tally = nullptr, std::vector<KnownStretch>* known = nullptr,
    std::uint32_t below = std::numeric_limits<std::uint32_t>::max());

/// Adds `tally`'s cell bounds, box bounds and sample pairs to the
/// core.stretch.* counters, once per run: GLOVE's greedy loop, leftover
/// absorption and incremental placement fold their searches this way.
void add_search_counters(const SearchTally& tally);

/// The locality-sort key: the Morton interleave of the bounding-box centre
/// quantized to 1 km, each axis offset by 10^6 km and clamped to
/// [0, 2^32 - 1] cells.  Also stored in the glovebin block index.
[[nodiscard]] std::uint64_t locality_sort_key(
    const FingerprintBounds& bounds) noexcept;

/// Cuts positions 0..bounds.size()-1 into locality chunks: sorted by
/// (locality_sort_key(bounds[p]), p) and cut into runs of `chunk_size`,
/// the last run extended to the end rather than leave fewer than k
/// behind: the sharded run's reconcile chunks.  Throws
/// std::invalid_argument unless chunk_size >= max(k, 1) and
/// bounds.size() < 2^32.
[[nodiscard]] std::vector<std::vector<std::uint32_t>> locality_chunks(
    std::span<const FingerprintBounds> bounds, std::size_t chunk_size,
    std::uint32_t k);

}  // namespace glove::core

#endif  // GLOVE_CORE_SCALABILITY_HPP
