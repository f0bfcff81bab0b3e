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
double gap_term(double gap_x, double gap_y, double gap_t,
                const StretchLimits& limits) {
  const double phi_sigma =
      std::min((gap_x + gap_y) / limits.phi_max_sigma_m, 1.0);
  const double phi_tau = std::min(gap_t / limits.phi_max_tau_min, 1.0);
  return limits.w_sigma * phi_sigma + limits.w_tau * phi_tau;
}

double slot_gap(const TimeSlot& a, const TimeSlot& b,
                const StretchLimits& limits) {
  return gap_term(axis_gap(a.x_lo, a.x_hi, b.x_lo, b.x_hi),
                  axis_gap(a.y_lo, a.y_hi, b.y_lo, b.y_hi),
                  axis_gap(a.t_lo, a.t_hi, b.t_lo, b.t_hi), limits);
}

/// One direction of slot_lower_bound: for each slot of `outer`, its count
/// times the least slot_gap to a slot of `inner`, summed and averaged over
/// `outer`'s samples.
double directed_slot_bound(const SlotSummary& outer, const SlotSummary& inner,
                           const StretchLimits& limits) {
  double total = 0.0;
  for (const TimeSlot& s : outer.slots) {
    double best = std::numeric_limits<double>::infinity();
    for (const TimeSlot& u : inner.slots) {
      best = std::min(best, slot_gap(s, u, limits));
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

double slot_lower_bound(const SlotSummary& a, const SlotSummary& b,
                        const StretchLimits& limits) {
  // eq. 10's choice of direction, and fingerprint_stretch's average at
  // equal sample counts.  kRoundingMargin covers the rounding of eq. 10
  // as in stretch_lower_bound; the per-slot products and the sum here add
  // about S + 2 relative steps of 2^-53, far inside it.
  if (a.samples == 0 || b.samples == 0) return 0.0;
  double bound = 0.0;
  if (a.samples > b.samples) {
    bound = directed_slot_bound(a, b, limits);
  } else if (b.samples > a.samples) {
    bound = directed_slot_bound(b, a, limits);
  } else {
    bound = (directed_slot_bound(a, b, limits) +
             directed_slot_bound(b, a, limits)) /
            2.0;
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
  // positive, then Morton-interleaved.
  const auto quantize = [](double v) {
    const double q = v / 1'000.0 + 1'000'000.0;
    return static_cast<std::uint32_t>(std::max(0.0, q));
  };
  const std::uint32_t qx = quantize(bounds.box.x + bounds.box.dx / 2);
  const std::uint32_t qy = quantize(bounds.box.y + bounds.box.dy / 2);
  return geo::morton_interleave(qx, qy);
}

double stretch_lower_bound(const FingerprintBounds& a,
                           const FingerprintBounds& b,
                           const StretchLimits& limits) {
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
  return gap_term(gap_x, gap_y, gap_t, limits) * kRoundingMargin;
}

std::vector<Neighbor> nearest(const cdr::Fingerprint& fp,
                              const NodeBounds& own,
                              std::span<const cdr::Fingerprint> candidates,
                              std::span<const NodeBounds> bounds,
                              std::span<const std::uint32_t> ids,
                              const StretchLimits& limits, std::size_t count,
                              std::optional<std::uint32_t> skip,
                              SearchTally* tally,
                              std::vector<KnownStretch>* known) {
  if (ids.empty() || candidates.size() != bounds.size() || count == 0) {
    throw std::invalid_argument{
        "nearest needs a non-empty candidate list, one bounds entry per "
        "candidate and a count of at least 1"};
  }
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
  // still named, compacted to the front of `known` in id order.
  std::vector<std::tuple<double, std::uint32_t, bool>> order;
  order.reserve(ids.size());
  std::size_t kept = 0;
  std::size_t next_known = 0;
  for (const std::uint32_t c : ids) {
    if (c >= candidates.size()) {
      throw std::invalid_argument{"nearest: candidate id out of range"};
    }
    if (c == skip) continue;
    if (known != nullptr) {
      while (next_known < known->size() && (*known)[next_known].id < c) {
        ++next_known;
      }
      if (next_known < known->size() && (*known)[next_known].id == c) {
        const KnownStretch value = (*known)[next_known++];
        (*known)[kept++] = value;
        if (value.exact) {
          keep(Neighbor{c, value.value});
        } else {
          order.emplace_back(value.value, c, true);
        }
        continue;
      }
    }
    order.emplace_back(stretch_lower_bound(own.box, bounds[c].box, limits), c,
                       false);
  }
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  SearchTally done;
  std::vector<KnownStretch> fresh;  // values computed here, for `known`
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [bound, c, slot_stage] = order.back();
    // A stretch is never below its bounds: past the count-th best stretch
    // no later candidate can beat or tie it.
    if (best.size() == count && bound > best.back().stretch) break;
    if (!slot_stage) {
      const double slot =
          std::max(bound, slot_lower_bound(own.slots, bounds[c].slots, limits));
      ++done.slot_bounds;
      if (known != nullptr) fresh.push_back(KnownStretch{slot, c, false});
      order.back() = {slot, c, true};
      std::push_heap(order.begin(), order.end(), std::greater<>{});
      continue;
    }
    order.pop_back();
    const Neighbor found{
        c, fingerprint_stretch(fp, candidates[c], limits, &done.sample_pairs)};
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

std::vector<std::uint32_t> every_id(std::size_t count) {
  if (count > std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1) {
    throw std::invalid_argument{"nearest takes at most 2^32 candidates"};
  }
  std::vector<std::uint32_t> ids(count);
  std::iota(ids.begin(), ids.end(), std::uint32_t{0});
  return ids;
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

GloveResult anonymize_chunked(const cdr::FingerprintDataset& data,
                              const ChunkedConfig& config,
                              const util::RunHooks& hooks) {
  if (data.size() < config.glove.k) {
    throw std::invalid_argument{
        "dataset smaller than the target anonymity level k"};
  }

  // Locality chunks (locality_chunks checks chunk_size >= k): Morton
  // order of the bounding-box centres, so chunks hold co-located users.
  const std::vector<std::vector<std::uint32_t>> chunks = locality_chunks(
      bounds_of(data.fingerprints()), config.chunk_size, config.glove.k);

  GloveResult total;
  total.stats.input_users = data.total_users();
  total.stats.input_samples = data.total_samples();
  std::vector<cdr::Fingerprint> output;

  // Inner runs observe only the cancellation token; chunk completions are
  // the outer progress unit (per-chunk progress would not be monotone).
  util::RunHooks inner;
  inner.cancel = hooks.cancel;

  std::size_t done = 0;
  for (const std::vector<std::uint32_t>& positions : chunks) {
    hooks.throw_if_cancelled();
    std::vector<cdr::Fingerprint> chunk;
    chunk.reserve(positions.size());
    for (const std::uint32_t p : positions) chunk.push_back(data[p]);
    GloveResult part =
        anonymize(cdr::FingerprintDataset{std::move(chunk)}, config.glove,
                  inner);
    for (cdr::Fingerprint& fp : part.anonymized.mutable_fingerprints()) {
      output.push_back(std::move(fp));
    }
    total.stats.accumulate_costs(part.stats);
    done += positions.size();
    hooks.report(done, data.size());
  }

  total.anonymized = cdr::FingerprintDataset{
      std::move(output),
      data.name() + "-chunked-k" + std::to_string(config.glove.k)};
  total.stats.output_groups = total.anonymized.size();
  total.stats.output_samples = total.anonymized.total_samples();
  return total;
}

}  // namespace glove::core
