#include "glove/core/incremental.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <optional>
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
  // groups, and per newcomer, so each nearest search skips distant
  // candidates.
  std::vector<NodeBounds> group_bounds = node_bounds_of(groups);
  const std::vector<NodeBounds> newcomer_bounds =
      node_bounds_of(new_users.fingerprints());
  const MergeOptions options = merge_options(config);

  // Decide each newcomer's fate: nearest existing group vs nearest fellow
  // newcomer.  Computed in parallel, applied sequentially (joins mutate
  // groups, so they are replayed in deterministic order).  Each choice
  // keeps its own search tallies, summed in newcomer order below.
  const std::size_t n = new_users.size();
  struct Choice {
    Neighbor group{0, std::numeric_limits<double>::infinity()};
    double to_peer = std::numeric_limits<double>::infinity();
    SearchTally tally;
  };
  // Progress: n decision units (parallel phase) then n placement units.
  const std::uint64_t total_work = 2 * static_cast<std::uint64_t>(n);
  std::mutex progress_mutex;
  std::uint64_t decisions_done = 0;

  CandidateGrid group_grid{group_bounds};
  const CandidateGrid newcomer_grid{newcomer_bounds};
  std::vector<Choice> choices(n);
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          hooks.throw_if_cancelled();
          Choice& choice = choices[i];
          if (!groups.empty()) {
            choice.group =
                nearest(new_users[i], newcomer_bounds[i], groups, group_bounds,
                        group_grid, config.limits, 1, std::nullopt,
                        &choice.tally)
                    .front();
          }
          const std::vector<Neighbor> peer =
              nearest(new_users[i], newcomer_bounds[i],
                      new_users.fingerprints(), newcomer_bounds,
                      newcomer_grid, config.limits, 1,
                      static_cast<std::uint32_t>(i), &choice.tally);
          if (!peer.empty()) choice.to_peer = peer.front().stretch;
          if (hooks.progress) {
            const std::lock_guard lock{progress_mutex};
            hooks.progress(++decisions_done, total_work);
          }
        }
      },
      /*min_chunk=*/1);
  SearchTally tally;
  for (const Choice& choice : choices) tally += choice.tally;

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
      group_grid.widen(static_cast<std::uint32_t>(g), group_bounds[g].box);
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
          nearest(straggler, node_bounds(straggler), groups, group_bounds,
                  group_grid, config.limits, 1, std::nullopt, &tally)
              .front()
              .index;
      groups[g] = merge_fingerprints(groups[g], straggler, options);
      group_bounds[g] = node_bounds(groups[g]);
      group_grid.widen(static_cast<std::uint32_t>(g), group_bounds[g].box);
      ++result.stats.joined_existing_groups;
    }
  }

  // After the greedy pass's stats are in, so its count is kept.
  result.stats.glove.stretch_evaluations += tally.evaluations;
  add_search_counters(tally);
  hooks.report(total_work, total_work);
  result.anonymized = cdr::FingerprintDataset{
      std::move(groups), published.name() + "-updated"};
  return result;
}

}  // namespace glove::core
