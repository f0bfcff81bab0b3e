#include "glove/core/scalability.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "glove/geo/geo.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {

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
  std::vector<FingerprintBounds> bounds(fingerprints.size());
  util::parallel_for(
      fingerprints.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          bounds[i] = fingerprint_bounds(fingerprints[i]);
        }
      },
      /*min_chunk=*/64);
  return bounds;
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

}  // namespace

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
  // the *computed* stretch, which is what the lazy heap's exactness,
  // nearest_group and the pruned k-gap scan rely on.  fingerprint_stretch
  // is 0 when either side has no samples.
  if (a.empty || b.empty) return 0.0;
  const double gap_x = axis_gap(a.box.x, upper_end(a.box.x, a.box.dx),
                                b.box.x, upper_end(b.box.x, b.box.dx));
  const double gap_y = axis_gap(a.box.y, upper_end(a.box.y, a.box.dy),
                                b.box.y, upper_end(b.box.y, b.box.dy));
  const double gap_t =
      axis_gap(a.interval.t, upper_end(a.interval.t, a.interval.dt),
               b.interval.t, upper_end(b.interval.t, b.interval.dt));
  const double phi_sigma =
      std::min((gap_x + gap_y) / limits.phi_max_sigma_m, 1.0);
  const double phi_tau = std::min(gap_t / limits.phi_max_tau_min, 1.0);
  return (limits.w_sigma * phi_sigma + limits.w_tau * phi_tau) *
         kRoundingMargin;
}

NearestGroup nearest_group(const cdr::Fingerprint& fp,
                           std::span<const cdr::Fingerprint> groups,
                           std::span<const FingerprintBounds> group_bounds,
                           const StretchLimits& limits,
                           std::uint64_t* evaluations,
                           std::uint64_t* sample_pairs) {
  if (groups.empty() || groups.size() != group_bounds.size()) {
    throw std::invalid_argument{
        "nearest_group needs a non-empty group list and one bounds entry "
        "per group"};
  }
  const FingerprintBounds bounds = fingerprint_bounds(fp);
  // A min-heap over (bound, index) yields the order a full sort would, but
  // only the prefix the search actually visits is ever ordered.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    order.emplace_back(stretch_lower_bound(bounds, group_bounds[g], limits),
                       g);
  }
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  NearestGroup best{order.front().second,
                    std::numeric_limits<double>::infinity()};
  std::uint64_t evaluated = 0;
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [bound, g] = order.back();
    order.pop_back();
    // A stretch is never below its bound: past the best stretch no later
    // candidate can beat or tie it.
    if (bound > best.stretch) break;
    const double d = fingerprint_stretch(fp, groups[g], limits, sample_pairs);
    ++evaluated;
    if (d < best.stretch || (d == best.stretch && g < best.index)) {
      best = NearestGroup{g, d};
    }
  }
  if (evaluations != nullptr) *evaluations += evaluated;
  return best;
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

std::vector<KGapEntry> k_gaps_pruned(const cdr::FingerprintDataset& data,
                                     std::uint32_t k,
                                     const StretchLimits& limits,
                                     std::uint64_t* pruned_pairs) {
  if (k < 2) throw std::invalid_argument{"k-gap requires k >= 2"};
  if (data.size() < k) {
    throw std::invalid_argument{
        "k-gap requires at least k fingerprints in the dataset"};
  }
  const std::size_t n = data.size();
  const std::size_t neighbors = k - 1;

  std::vector<FingerprintBounds> bounds(n);
  for (std::size_t i = 0; i < n; ++i) bounds[i] = fingerprint_bounds(data[i]);

  std::vector<KGapEntry> result(n);
  std::atomic<std::uint64_t> pruned{0};

  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::pair<double, std::size_t>> order;
        std::vector<std::pair<double, std::size_t>> best;
        for (std::size_t a = begin; a < end; ++a) {
          // Candidates sorted by lower bound; evaluate until the bound
          // exceeds the current (k-1)-th best true stretch.
          order.clear();
          order.reserve(n - 1);
          for (std::size_t b = 0; b < n; ++b) {
            if (b == a) continue;
            order.emplace_back(
                stretch_lower_bound(bounds[a], bounds[b], limits), b);
          }
          std::sort(order.begin(), order.end());

          best.clear();  // max-heap-ish: keep the k-1 smallest true values
          double kth = std::numeric_limits<double>::infinity();
          std::uint64_t local_pruned = 0;
          for (const auto& [lb, b] : order) {
            if (best.size() >= neighbors && lb >= kth) {
              ++local_pruned;
              continue;
            }
            const double d = fingerprint_stretch(data[a], data[b], limits);
            best.emplace_back(d, b);
            std::sort(best.begin(), best.end());
            if (best.size() > neighbors) best.pop_back();
            if (best.size() == neighbors) kth = best.back().first;
          }
          pruned.fetch_add(local_pruned, std::memory_order_relaxed);

          KGapEntry& entry = result[a];
          entry.neighbors.reserve(neighbors);
          double total = 0.0;
          for (const auto& [d, b] : best) {
            total += d;
            entry.neighbors.push_back(b);
          }
          entry.gap = total / static_cast<double>(neighbors);
        }
      },
      /*min_chunk=*/1);
  if (pruned_pairs != nullptr) *pruned_pairs = pruned.load();
  return result;
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
