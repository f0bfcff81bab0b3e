#include "glove/baseline/w4m.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "glove/geo/geo.hpp"

namespace glove::baseline {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Point-trajectory view of a fingerprint: (t, x, y) at sample centres,
/// with linear constant-speed interpolation between points (the W4M
/// trajectory model).
struct Trajectory {
  std::vector<double> t;
  std::vector<double> x;
  std::vector<double> y;
  /// Original samples each point represents (Sample::contributors);
  /// deletion accounting is in original samples everywhere.
  std::vector<std::uint32_t> c;

  [[nodiscard]] std::size_t size() const noexcept { return t.size(); }
  [[nodiscard]] double t_begin() const noexcept { return t.front(); }
  [[nodiscard]] double t_end() const noexcept { return t.back(); }

  /// Interpolated position at `when`, clamped to the endpoints.
  [[nodiscard]] geo::PlanarPoint at(double when) const {
    if (when <= t.front()) return {x.front(), y.front()};
    if (when >= t.back()) return {x.back(), y.back()};
    const auto it = std::upper_bound(t.begin(), t.end(), when);
    const auto hi = static_cast<std::size_t>(it - t.begin());
    const std::size_t lo = hi - 1;
    const double span = t[hi] - t[lo];
    const double f = span > 0.0 ? (when - t[lo]) / span : 0.0;
    return {x[lo] + f * (x[hi] - x[lo]), y[lo] + f * (y[hi] - y[lo])};
  }

  /// Index of the sample whose timestamp is nearest to `when`.
  [[nodiscard]] std::size_t nearest_index(double when) const {
    const auto it = std::lower_bound(t.begin(), t.end(), when);
    if (it == t.begin()) return 0;
    if (it == t.end()) return t.size() - 1;
    const auto hi = static_cast<std::size_t>(it - t.begin());
    return (t[hi] - when < when - t[hi - 1]) ? hi : hi - 1;
  }
};

Trajectory to_trajectory(const cdr::Fingerprint& fp) {
  Trajectory traj;
  traj.t.reserve(fp.size());
  traj.x.reserve(fp.size());
  traj.y.reserve(fp.size());
  traj.c.reserve(fp.size());
  for (const cdr::Sample& s : fp.samples()) {
    traj.t.push_back(s.tau.t);
    traj.x.push_back(s.sigma.x + s.sigma.dx / 2);
    traj.y.push_back(s.sigma.y + s.sigma.dy / 2);
    traj.c.push_back(s.contributors);
  }
  return traj;
}

double linear_st_distance_impl(const Trajectory& a, const Trajectory& b) {
  if (a.size() == 0 || b.size() == 0) return kInf;
  const double lo = std::max(a.t_begin(), b.t_begin());
  const double hi = std::min(a.t_end(), b.t_end());
  if (!(hi > lo)) return kInf;

  // Trapezoidal time-average of the inter-point distance over the merged
  // breakpoints of the co-existence interval.
  double integral = 0.0;
  double prev_t = lo;
  double prev_d = geo::planar_distance_m(a.at(lo), b.at(lo));
  std::size_t ia = 0;
  std::size_t ib = 0;
  while (ia < a.size() && a.t[ia] <= lo) ++ia;
  while (ib < b.size() && b.t[ib] <= lo) ++ib;
  while (true) {
    double next_t = hi;
    if (ia < a.size() && a.t[ia] < next_t) next_t = a.t[ia];
    if (ib < b.size() && b.t[ib] < next_t) next_t = b.t[ib];
    const double d = geo::planar_distance_m(a.at(next_t), b.at(next_t));
    integral += (next_t - prev_t) * (prev_d + d) / 2.0;
    prev_t = next_t;
    prev_d = d;
    if (next_t >= hi) break;
    while (ia < a.size() && a.t[ia] <= next_t) ++ia;
    while (ib < b.size() && b.t[ib] <= next_t) ++ib;
  }
  const double mean_distance = integral / (hi - lo);

  // Penalize limited co-existence: scale by span_union / span_intersection.
  const double union_lo = std::min(a.t_begin(), b.t_begin());
  const double union_hi = std::max(a.t_end(), b.t_end());
  const double penalty = (union_hi - union_lo) / (hi - lo);
  return mean_distance * penalty;
}

/// How far (on average) the cluster seed is from its k-1 nearest peers
/// before we accept it as a cluster; beyond this it goes to the trash bin
/// (budget permitting).  Tuned to the delta scale: clusters that would need
/// perturbations of many cylinder diameters are outliers.
constexpr double kOutlierThresholdM = 15.0 * kW4MDeltaM;

}  // namespace

double linear_st_distance(const cdr::Fingerprint& a,
                          const cdr::Fingerprint& b) {
  return linear_st_distance_impl(to_trajectory(a), to_trajectory(b));
}

void check_config(std::uint32_t k) {
  if (k < 2) {
    throw std::invalid_argument{"k must be >= 2 (got " + std::to_string(k) +
                                ")"};
  }
  if (k > kW4MChunkSize) {
    throw std::invalid_argument{"k must be at most " +
                                std::to_string(kW4MChunkSize) +
                                ", the W4M-LC chunk size (got " +
                                std::to_string(k) + ")"};
  }
}

W4MResult anonymize_w4m(const cdr::FingerprintDataset& data,
                        std::uint32_t k) {
  check_config(k);
  util::check_dataset_size(data.size(), k);
  {
    std::vector<cdr::UserId> users;
    cdr::add_distinct_users(users, data.fingerprints(), "input dataset");
  }

  W4MResult result;
  W4MStats& stats = result.stats;
  stats.input_users = data.total_users();
  stats.input_samples = data.total_samples();

  const std::size_t n = data.size();
  std::vector<Trajectory> trajectories;
  trajectories.reserve(n);
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    trajectories.push_back(to_trajectory(fp));
  }

  std::uint64_t trash_budget = static_cast<std::uint64_t>(
      kW4MTrashFraction * static_cast<double>(n));
  std::vector<std::vector<std::size_t>> clusters;

  // --- Greedy k-member clustering within chunks (the LC variant).
  for (std::size_t chunk_begin = 0; chunk_begin < n;
       chunk_begin += kW4MChunkSize) {
    const std::size_t chunk_end = std::min(chunk_begin + kW4MChunkSize, n);
    std::vector<std::size_t> unassigned;
    for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
      unassigned.push_back(i);
    }

    while (unassigned.size() >= k) {
      const std::size_t pivot = unassigned.front();
      // Distances from the pivot to all other unassigned trajectories.
      std::vector<std::pair<double, std::size_t>> nearest;
      nearest.reserve(unassigned.size() - 1);
      for (std::size_t idx = 1; idx < unassigned.size(); ++idx) {
        const std::size_t other = unassigned[idx];
        nearest.emplace_back(
            linear_st_distance_impl(trajectories[pivot],
                                    trajectories[other]),
            other);
      }
      const std::size_t need = k - 1;
      std::partial_sort(
          nearest.begin(),
          nearest.begin() + static_cast<std::ptrdiff_t>(need),
          nearest.end());
      double mean_distance = 0.0;
      for (std::size_t i = 0; i < need; ++i) mean_distance += nearest[i].first;
      mean_distance /= static_cast<double>(need);

      if ((!std::isfinite(mean_distance) ||
           mean_distance > kOutlierThresholdM) &&
          trash_budget > 0) {
        // Outlier: to the trash bin.  Deletion is counted in *original*
        // samples (summed contributors), the one definition every
        // suppression path shares (core GLOVE leftovers, shard
        // reconciliation, this baseline).
        --trash_budget;
        stats.discarded_fingerprints += data[pivot].group_size();
        stats.deleted_samples += data[pivot].total_contributors();
        unassigned.erase(unassigned.begin());
        continue;
      }

      std::vector<std::size_t> cluster{pivot};
      for (std::size_t i = 0; i < need; ++i) {
        cluster.push_back(nearest[i].second);
      }
      // Remove clustered ids from the unassigned pool.
      std::vector<std::size_t> rest;
      rest.reserve(unassigned.size() - cluster.size());
      for (const std::size_t id : unassigned) {
        if (std::find(cluster.begin(), cluster.end(), id) == cluster.end()) {
          rest.push_back(id);
        }
      }
      unassigned = std::move(rest);
      clusters.push_back(std::move(cluster));
    }

    // Chunk leftovers (< k): attach to the nearest cluster of this chunk,
    // or trash when the chunk produced none.
    for (const std::size_t id : unassigned) {
      double best = kInf;
      std::vector<std::size_t>* best_cluster = nullptr;
      for (auto& cluster : clusters) {
        const double d = linear_st_distance_impl(
            trajectories[id], trajectories[cluster.front()]);
        if (d < best) {
          best = d;
          best_cluster = &cluster;
        }
      }
      if (best_cluster != nullptr && std::isfinite(best)) {
        best_cluster->push_back(id);
      } else {
        stats.discarded_fingerprints += data[id].group_size();
        stats.deleted_samples += data[id].total_contributors();
      }
    }
  }
  stats.clusters = clusters.size();

  // --- Per-cluster anonymization: align members on the pivot's timestamps
  // (creating synthetic samples where a member has no sample nearby,
  // deleting excess member samples that collapse onto one timestamp) and
  // publish the centroid trajectory with spatial extent delta.
  std::vector<cdr::Fingerprint> published;
  published.reserve(clusters.size());
  double position_error_sum = 0.0;
  double time_error_sum = 0.0;
  std::uint64_t error_count = 0;

  for (const auto& cluster : clusters) {
    const std::size_t pivot = cluster.front();
    const Trajectory& pivot_traj = trajectories[pivot];
    const std::size_t slots = pivot_traj.size();

    // Published member-point per (member, slot): position of the member.
    std::vector<geo::PlanarPoint> slot_positions(slots,
                                                 geo::PlanarPoint{0.0, 0.0});
    std::vector<double> slot_weight(slots, 0.0);

    struct MemberPoint {
      geo::PlanarPoint position;
      double time_error;
    };
    std::vector<std::vector<MemberPoint>> member_points(
        cluster.size(), std::vector<MemberPoint>(slots));

    for (std::size_t mi = 0; mi < cluster.size(); ++mi) {
      const std::size_t member = cluster[mi];
      const Trajectory& traj = trajectories[member];

      // Assign each member sample to its nearest pivot slot.
      std::vector<std::vector<std::size_t>> assigned(slots);
      for (std::size_t s = 0; s < traj.size(); ++s) {
        // Nearest slot by timestamp.
        const auto it = std::lower_bound(pivot_traj.t.begin(),
                                         pivot_traj.t.end(), traj.t[s]);
        std::size_t slot;
        if (it == pivot_traj.t.begin()) {
          slot = 0;
        } else if (it == pivot_traj.t.end()) {
          slot = slots - 1;
        } else {
          const auto hi = static_cast<std::size_t>(it - pivot_traj.t.begin());
          slot =
              (pivot_traj.t[hi] - traj.t[s] < traj.t[s] - pivot_traj.t[hi - 1])
                  ? hi
                  : hi - 1;
        }
        assigned[slot].push_back(s);
      }

      for (std::size_t slot = 0; slot < slots; ++slot) {
        const double slot_t = pivot_traj.t[slot];
        MemberPoint point{};
        if (assigned[slot].empty()) {
          // Synthetic sample: interpolate the member's position.
          point.position = traj.at(slot_t);
          point.time_error =
              std::abs(slot_t - traj.t[traj.nearest_index(slot_t)]);
          ++stats.created_samples;
        } else {
          // Use the closest assigned sample; the rest are deleted.
          std::size_t best = assigned[slot].front();
          for (const std::size_t s : assigned[slot]) {
            if (std::abs(traj.t[s] - slot_t) <
                std::abs(traj.t[best] - slot_t)) {
              best = s;
            }
          }
          point.position = {traj.x[best], traj.y[best]};
          point.time_error = std::abs(traj.t[best] - slot_t);
          for (const std::size_t s : assigned[slot]) {
            if (s != best) stats.deleted_samples += traj.c[s];
          }
        }
        member_points[mi][slot] = point;
        slot_positions[slot].x_m += point.position.x_m;
        slot_positions[slot].y_m += point.position.y_m;
        slot_weight[slot] += 1.0;
      }
    }

    // Centroid per slot; error accounting per member-point.
    std::vector<cdr::Sample> samples;
    samples.reserve(slots);
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const geo::PlanarPoint centroid{
          slot_positions[slot].x_m / slot_weight[slot],
          slot_positions[slot].y_m / slot_weight[slot]};
      for (std::size_t mi = 0; mi < cluster.size(); ++mi) {
        const MemberPoint& point = member_points[mi][slot];
        const double displacement =
            geo::planar_distance_m(point.position, centroid);
        position_error_sum += displacement;
        time_error_sum += point.time_error;
        ++error_count;
        stats.position_errors_m.push_back(displacement);
        stats.time_errors_min.push_back(point.time_error);
      }
      cdr::Sample s;
      s.sigma = cdr::SpatialExtent{centroid.x_m - kW4MDeltaM / 2, kW4MDeltaM,
                                   centroid.y_m - kW4MDeltaM / 2, kW4MDeltaM};
      s.tau = cdr::TemporalExtent{pivot_traj.t[slot], 1.0};
      s.contributors = static_cast<std::uint32_t>(cluster.size());
      samples.push_back(s);
    }

    std::vector<cdr::UserId> members;
    for (const std::size_t id : cluster) {
      members.insert(members.end(), data[id].members().begin(),
                     data[id].members().end());
    }
    cdr::check_generalized(
        published.emplace_back(std::move(members), std::move(samples)));
  }

  if (error_count > 0) {
    stats.mean_position_error_m =
        position_error_sum / static_cast<double>(error_count);
    stats.mean_time_error_min =
        time_error_sum / static_cast<double>(error_count);
  }
  result.anonymized = cdr::FingerprintDataset{
      std::move(published), data.name() + "-w4m-k" + std::to_string(k)};
  return result;
}

}  // namespace glove::baseline
