#include "glove/core/incremental.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "glove/core/scalability.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {

UpdateResult anonymize_update(const cdr::FingerprintDataset& published,
                              const cdr::FingerprintDataset& new_users,
                              const GloveConfig& config,
                              const util::RunHooks& hooks) {
  if (!is_k_anonymous(published, config.k)) {
    throw std::invalid_argument{
        "published dataset does not satisfy the configured k"};
  }
  for (const cdr::Fingerprint& fp : new_users.fingerprints()) {
    if (fp.group_size() != 1) {
      throw std::invalid_argument{"new users must be single-user records"};
    }
  }
  // Reject id collisions across the two inputs up front: a "newcomer"
  // already inside a published group would be double-counted, and the
  // released groups would overlap — exactly the cross-release linkage
  // the incremental update exists to prevent.
  std::vector<cdr::UserId> published_ids;
  for (const cdr::Fingerprint& fp : published.fingerprints()) {
    published_ids.insert(published_ids.end(), fp.members().begin(),
                         fp.members().end());
  }
  std::sort(published_ids.begin(), published_ids.end());
  for (const cdr::Fingerprint& fp : new_users.fingerprints()) {
    if (std::binary_search(published_ids.begin(), published_ids.end(),
                           fp.members().front())) {
      throw std::invalid_argument{
          "user id " + std::to_string(fp.members().front()) +
          " appears in both the published release and the new users"};
    }
  }

  UpdateResult result;
  result.stats.new_users = new_users.size();

  std::vector<cdr::Fingerprint> groups{published.fingerprints().begin(),
                                       published.fingerprints().end()};
  // Box and slot bounds per group, kept current as joins widen the
  // groups, so each nearest-group search skips distant groups.
  std::vector<NodeBounds> group_bounds = node_bounds_of(groups);
  const MergeOptions options = merge_options(config);

  // Decide each newcomer's fate: nearest existing group vs nearest fellow
  // newcomer.  Computed in parallel, applied sequentially (joins mutate
  // groups, so they are replayed in deterministic order).
  const std::size_t n = new_users.size();
  struct Choice {
    NearestGroup group{0, std::numeric_limits<double>::infinity()};
    double to_peer = std::numeric_limits<double>::infinity();
  };
  // Progress: n decision units (parallel phase) then n placement units.
  const std::uint64_t total_work = 2 * static_cast<std::uint64_t>(n);
  std::mutex progress_mutex;
  std::uint64_t decisions_done = 0;

  std::vector<Choice> choices(n);
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hooks.throw_if_cancelled();
          Choice& choice = choices[i];
          if (!groups.empty()) {
            choice.group = nearest_group(new_users[i], groups, group_bounds,
                                         config.limits);
          }
          for (std::size_t j = 0; j < n; ++j) {
            if (j == i) continue;
            const double d =
                fingerprint_stretch(new_users[i], new_users[j],
                                    config.limits);
            choice.to_peer = std::min(choice.to_peer, d);
          }
          if (hooks.progress) {
            const std::lock_guard lock{progress_mutex};
            hooks.progress(++decisions_done, total_work);
          }
        }
      },
      /*min_chunk=*/1);

  // The embedded greedy pass observes only the cancellation token; its
  // own progress would not compose monotonically with the outer units.
  util::RunHooks inner;
  inner.cancel = hooks.cancel;

  std::uint64_t placed = 0;
  std::vector<cdr::Fingerprint> peer_pool;
  for (std::size_t i = 0; i < n; ++i) {
    hooks.throw_if_cancelled();
    const bool join = !groups.empty() &&
                      (choices[i].group.stretch <= choices[i].to_peer);
    if (join) {
      const std::size_t g = choices[i].group.index;
      groups[g] = merge_fingerprints(groups[g], new_users[i], options);
      group_bounds[g] = node_bounds(groups[g]);
      ++result.stats.joined_existing_groups;
      hooks.report(static_cast<std::uint64_t>(n) + ++placed, total_work);
    } else {
      peer_pool.push_back(new_users[i]);
    }
  }

  // Newcomers pairing among themselves: run the standard greedy pass when
  // enough of them remain; otherwise fall back to joining groups.
  if (peer_pool.size() >= config.k) {
    const GloveResult pass = anonymize(
        cdr::FingerprintDataset{std::move(peer_pool)}, config, inner);
    result.stats.glove = pass.stats;
    result.stats.formed_new_groups = pass.anonymized.size();
    for (const cdr::Fingerprint& fp : pass.anonymized.fingerprints()) {
      groups.push_back(fp);
    }
  } else {
    for (const cdr::Fingerprint& straggler : peer_pool) {
      hooks.throw_if_cancelled();
      if (groups.empty()) {
        throw std::invalid_argument{
            "not enough users in total to reach the anonymity level"};
      }
      // Not absorb_leftovers: the group comes first in the merge here,
      // which decides member order when sample counts tie.
      const std::size_t g =
          nearest_group(straggler, groups, group_bounds, config.limits).index;
      groups[g] = merge_fingerprints(groups[g], straggler, options);
      group_bounds[g] = node_bounds(groups[g]);
      ++result.stats.joined_existing_groups;
    }
  }

  hooks.report(total_work, total_work);
  result.anonymized = cdr::FingerprintDataset{
      std::move(groups), published.name() + "-updated"};
  return result;
}

}  // namespace glove::core
