#include "glove/cdr/dataset.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "glove/util/dataset_error.hpp"
#include "glove/util/rng.hpp"

namespace glove::cdr {

FingerprintDataset::FingerprintDataset(std::vector<Fingerprint> fingerprints,
                                       std::string name)
    : fingerprints_{std::move(fingerprints)}, name_{std::move(name)} {}

std::uint64_t FingerprintDataset::total_samples() const noexcept {
  std::uint64_t total = 0;
  for (const auto& fp : fingerprints_) total += fp.size();
  return total;
}

std::uint64_t FingerprintDataset::total_users() const noexcept {
  std::uint64_t total = 0;
  for (const auto& fp : fingerprints_) total += fp.group_size();
  return total;
}

double FingerprintDataset::mean_fingerprint_length() const noexcept {
  if (fingerprints_.empty()) return 0.0;
  return static_cast<double>(total_samples()) /
         static_cast<double>(fingerprints_.size());
}

void check_dataset_name(std::string_view name, const std::string& path) {
  if (name.find_first_of("\r\n") != std::string_view::npos) {
    throw util::DatasetError{(path.empty() ? "" : path + ": ") +
                             "dataset name contains a line break"};
  }
}

FingerprintDataset::TimeSpan FingerprintDataset::time_span() const noexcept {
  if (fingerprints_.empty()) return {};
  double begin = std::numeric_limits<double>::infinity();
  double end = -std::numeric_limits<double>::infinity();
  for (const auto& fp : fingerprints_) {
    for (const Sample& s : fp.samples()) {
      begin = std::min(begin, s.tau.t);
      end = std::max(end, s.tau.t_end());
    }
  }
  if (begin > end) return {};
  return {begin, end};
}

FingerprintDataset filter_min_activity(const FingerprintDataset& data,
                                       double min_samples_per_day,
                                       double timespan_days) {
  if (!(timespan_days > 0.0)) {
    // glove-lint: allow(throw-context, in-memory dataset precondition; no
    // file is involved at this layer)
    throw std::invalid_argument{"timespan_days must be positive"};
  }
  std::vector<Fingerprint> kept;
  for (const auto& fp : data.fingerprints()) {
    const double per_day =
        static_cast<double>(fp.size()) / timespan_days;
    if (per_day >= min_samples_per_day) kept.push_back(fp);
  }
  return FingerprintDataset{std::move(kept), data.name() + "-screened"};
}

FingerprintDataset cut_time_window(const FingerprintDataset& data,
                                   double begin_min, double end_min) {
  if (!(end_min > begin_min)) {
    // glove-lint: allow(throw-context, in-memory dataset precondition; no
    // file is involved at this layer)
    throw std::invalid_argument{"empty time window"};
  }
  std::vector<Fingerprint> kept;
  for (const auto& fp : data.fingerprints()) {
    std::vector<Sample> inside;
    for (const Sample& s : fp.samples()) {
      if (s.tau.t >= begin_min && s.tau.t_end() <= end_min) {
        inside.push_back(s);
      }
    }
    if (inside.empty()) continue;
    kept.emplace_back(std::vector<UserId>{fp.members().begin(),
                                          fp.members().end()},
                      std::move(inside));
  }
  return FingerprintDataset{std::move(kept), data.name() + "-window"};
}

FingerprintDataset filter_geofence(const FingerprintDataset& data, double cx,
                                   double cy, double radius_m,
                                   double min_inside_fraction) {
  if (!(radius_m > 0.0)) {
    // glove-lint: allow(throw-context, in-memory dataset precondition; no
    // file is involved at this layer)
    throw std::invalid_argument{"geofence radius must be positive"};
  }
  const auto inside = [&](const Sample& s) {
    const double mx = s.sigma.x + s.sigma.dx / 2;
    const double my = s.sigma.y + s.sigma.dy / 2;
    return std::abs(mx - cx) <= radius_m && std::abs(my - cy) <= radius_m;
  };
  std::vector<Fingerprint> kept;
  for (const auto& fp : data.fingerprints()) {
    std::vector<Sample> in;
    for (const Sample& s : fp.samples()) {
      if (inside(s)) in.push_back(s);
    }
    if (in.empty() || fp.empty()) continue;
    const double fraction =
        static_cast<double>(in.size()) / static_cast<double>(fp.size());
    if (fraction < min_inside_fraction) continue;
    kept.emplace_back(std::vector<UserId>{fp.members().begin(),
                                          fp.members().end()},
                      std::move(in));
  }
  return FingerprintDataset{std::move(kept), data.name() + "-city"};
}

FingerprintDataset subsample_users(const FingerprintDataset& data,
                                   double fraction, std::uint64_t seed) {
  if (!(fraction > 0.0) || fraction > 1.0) {
    // glove-lint: allow(throw-context, in-memory dataset precondition; no
    // file is involved at this layer)
    throw std::invalid_argument{"subsample fraction must be in (0, 1]"};
  }
  util::Xoshiro256 rng{seed};
  std::vector<Fingerprint> kept;
  for (const auto& fp : data.fingerprints()) {
    if (util::uniform01(rng) < fraction) kept.push_back(fp);
  }
  return FingerprintDataset{std::move(kept), data.name() + "-sub"};
}

}  // namespace glove::cdr
