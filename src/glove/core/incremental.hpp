// Incremental anonymization — releasing an updated dataset when new
// subscribers appear after a k-anonymized release is already published.
//
// Re-running GLOVE from scratch would re-generalize everyone (and a
// changed grouping could even leak information across releases, since an
// attacker holding both versions could intersect groups).  The
// incremental update instead keeps every published group intact and only
// decides, for each new user, whether to
//
//   (a) join the nearest existing group (the group's fingerprint widens to
//       cover the newcomer; its anonymity set only grows), or
//   (b) form new groups with other newcomers via the normal greedy pass,
//
// choosing whichever costs less stretch effort.  Groups never shrink or
// split, so the k-anonymity of previously published users is preserved by
// construction.

#ifndef GLOVE_CORE_INCREMENTAL_HPP
#define GLOVE_CORE_INCREMENTAL_HPP

#include "glove/core/glove.hpp"

namespace glove::core {

/// Statistics of an incremental update.
struct UpdateStats {
  std::uint64_t new_users = 0;
  std::uint64_t joined_existing_groups = 0;
  std::uint64_t formed_new_groups = 0;
  /// Stats of the embedded greedy pass (if any); stretch_evaluations also
  /// counts the exact evaluations of every placement search.
  GloveStats glove;
};

/// Result of an incremental update.
struct UpdateResult {
  cdr::FingerprintDataset anonymized;
  UpdateStats stats;
};

/// Adds `new_users` (group size 1 each) to the already-k-anonymized
/// `published` dataset.  Requires a config that passes check_config
/// (std::invalid_argument otherwise), `published` to satisfy config.k, the
/// newcomers to be single-user fingerprints whose ids do not appear in
/// any published group, and k newcomers when nothing is published;
/// throws util::DatasetError naming the group, fingerprint or id otherwise.
///
/// A newcomer joins its nearest existing group when that is cheaper than
/// its nearest fellow newcomer (or when too few newcomers remain to form a
/// group of k).  Remaining newcomers are anonymized by the standard greedy
/// pass; a leftover smaller than k merges into the nearest group.
[[nodiscard]] UpdateResult anonymize_update(
    const cdr::FingerprintDataset& published,
    const cdr::FingerprintDataset& new_users, const GloveConfig& config);

}  // namespace glove::core

#endif  // GLOVE_CORE_INCREMENTAL_HPP
