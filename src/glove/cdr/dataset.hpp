// FingerprintDataset: the movement micro-data database of Tab. 1 — one
// mobile fingerprint per record — plus the dataset-level operations the
// paper's evaluation needs (activity filtering, time-window cuts, geofence
// subsets, user subsampling).

#ifndef GLOVE_CDR_DATASET_HPP
#define GLOVE_CDR_DATASET_HPP

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "glove/cdr/fingerprint.hpp"

namespace glove::cdr {

/// A database of mobile fingerprints.
class FingerprintDataset {
 public:
  FingerprintDataset() = default;
  explicit FingerprintDataset(std::vector<Fingerprint> fingerprints,
                              std::string name = {});

  [[nodiscard]] std::span<const Fingerprint> fingerprints() const noexcept {
    return fingerprints_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return fingerprints_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return fingerprints_.empty(); }
  [[nodiscard]] const Fingerprint& operator[](std::size_t i) const {
    return fingerprints_[i];
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void add(Fingerprint fp) { fingerprints_.push_back(std::move(fp)); }

  /// Total number of samples across all fingerprints.
  [[nodiscard]] std::uint64_t total_samples() const noexcept;

  /// Total number of user records represented (sum of group sizes).
  [[nodiscard]] std::uint64_t total_users() const noexcept;

  /// Mean fingerprint length (n-bar of the complexity analysis, Sec. 6.3).
  [[nodiscard]] double mean_fingerprint_length() const noexcept;

  /// Time span [min sample start, max sample end] over the dataset, minutes.
  /// Returns {0, 0} when empty.
  struct TimeSpan {
    double begin_min = 0.0;
    double end_min = 0.0;
  };
  [[nodiscard]] TimeSpan time_span() const noexcept;

  [[nodiscard]] std::vector<Fingerprint>& mutable_fingerprints() noexcept {
    return fingerprints_;
  }

 private:
  std::vector<Fingerprint> fingerprints_;
  std::string name_;
};

/// Throws util::DatasetError naming `path` when `name` holds a line break.
/// A stored name becomes line 1 of every CSV release made from the
/// dataset, so both dataset writers and the glovebin footer decoder check
/// it.
void check_dataset_name(std::string_view name, const std::string& path);

/// Keeps only users with at least `min_samples_per_day` samples per day on
/// average — the preliminary screening applied to d4d-civ (Sec. 3).
/// `timespan_days` is the recording period length used for the average.
[[nodiscard]] FingerprintDataset filter_min_activity(
    const FingerprintDataset& data, double min_samples_per_day,
    double timespan_days);

/// Restricts every fingerprint to samples fully inside
/// [begin_min, end_min); users left with no samples are dropped.
/// Used by the Fig. 10 timespan sweep.
[[nodiscard]] FingerprintDataset cut_time_window(
    const FingerprintDataset& data, double begin_min, double end_min);

/// Keeps users whose fraction of samples within the axis-aligned box
/// centred at (cx, cy) with half-side `radius_m` is at least
/// `min_inside_fraction`, then drops their outside samples.  Models the
/// citywide abidjan/dakar subsets of Tab. 2.
[[nodiscard]] FingerprintDataset filter_geofence(
    const FingerprintDataset& data, double cx, double cy, double radius_m,
    double min_inside_fraction = 0.8);

/// Keeps a deterministic pseudo-random fraction of users (Fig. 11 sweep).
[[nodiscard]] FingerprintDataset subsample_users(
    const FingerprintDataset& data, double fraction, std::uint64_t seed);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_DATASET_HPP
