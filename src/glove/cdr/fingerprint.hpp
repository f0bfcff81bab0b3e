// The mobile fingerprint: the complete set of spatiotemporal samples a
// subscriber leaves during the recording period (Sec. 2.1), plus the
// bookkeeping GLOVE needs when fingerprints are merged (group size n_a,
// member user ids).

#ifndef GLOVE_CDR_FINGERPRINT_HPP
#define GLOVE_CDR_FINGERPRINT_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "glove/cdr/sample.hpp"

namespace glove::cdr {

using UserId = std::uint32_t;

/// A (possibly generalized) mobile fingerprint.
///
/// Invariants: samples are sorted by interval start time; `members()` lists
/// every user whose original fingerprint has been merged into this one and
/// `group_size() == members().size() >= 1`.
class Fingerprint {
 public:
  Fingerprint() = default;

  /// Fingerprint of a single user.  `samples` need not be pre-sorted.
  Fingerprint(UserId user, std::vector<Sample> samples);

  /// Fingerprint for an explicit member group (used by merge operations).
  Fingerprint(std::vector<UserId> members, std::vector<Sample> samples);

  /// Builds a fingerprint from samples already in time-sorted order,
  /// skipping the constructor's sort.  Deserializers that persisted
  /// `samples()` verbatim use this so re-sorting (std::sort is not stable)
  /// cannot permute time-tied samples and break byte-exact round-trips.
  [[nodiscard]] static Fingerprint from_time_sorted(
      std::vector<UserId> members, std::vector<Sample> samples);

  [[nodiscard]] std::span<const Sample> samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// Number of subscribers hidden in this fingerprint (n_a in eq. 4/7;
  /// the `.k` counter of Alg. 1).
  [[nodiscard]] std::uint32_t group_size() const noexcept {
    return static_cast<std::uint32_t>(members_.size());
  }

  [[nodiscard]] std::span<const UserId> members() const noexcept {
    return members_;
  }

  /// Representative id: the smallest member id (stable across merges).
  [[nodiscard]] UserId representative() const;

  /// Sum of `contributors` across samples: how many original samples this
  /// fingerprint still represents.
  [[nodiscard]] std::uint64_t total_contributors() const noexcept;

  /// Mutable access used by anonymization algorithms; callers must keep the
  /// time-sorted invariant (use `sort_samples()` after bulk edits).
  [[nodiscard]] std::vector<Sample>& mutable_samples() noexcept {
    return samples_;
  }
  void sort_samples();

  /// Appends the member ids of `other` (merge bookkeeping).
  void absorb_members(const Fingerprint& other);

 private:
  std::vector<UserId> members_;
  std::vector<Sample> samples_;
};

/// The decoders' member check: a repeated id would publish its user alone.
/// Throws util::DatasetError prefixed by `context` (source and row/block).
void check_members(std::span<const UserId> members,
                   const std::string& context);

/// The consumers' user check, across fingerprints: adds the member ids of
/// `fingerprints` to `users`, a sorted list of distinct ids, and keeps it
/// so.  Throws util::DatasetError prefixed by `context` (the dataset's
/// role) naming an id that is then held twice: that user would be
/// published in two groups, or in a group with itself.
void add_distinct_users(std::vector<UserId>& users,
                        std::span<const Fingerprint> fingerprints,
                        const std::string& context);

/// The generalizers' output check (GLOVE's merge, W4M's perturbation):
/// members near the edge of the double range generalize to a coordinate
/// or extent that is not finite, which no decoder accepts back.  Throws
/// util::DatasetError naming the group's users and the field.
void check_generalized(const Fingerprint& group);

}  // namespace glove::cdr

#endif  // GLOVE_CDR_FINGERPRINT_HPP
