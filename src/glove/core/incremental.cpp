#include "glove/core/incremental.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "glove/core/scalability.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {

UpdateResult anonymize_update(const cdr::FingerprintDataset& published,
                              const cdr::FingerprintDataset& new_users,
                              const GloveConfig& config) {
  check_config(config);
  // Reject a user id held twice, within either input or across the two,
  // up front: a "newcomer" already inside a published group would be
  // double-counted, and the released groups would overlap — exactly the
  // cross-release linkage the incremental update exists to prevent.
  for (std::size_t g = 0; g < published.size(); ++g) {
    const std::size_t hidden = published[g].group_size();
    if (hidden < config.k) {
      throw util::DatasetError{
          "published release is not k-anonymous: group " + std::to_string(g) +
          " hides " + std::to_string(hidden) +
          " users, fewer than the anonymity level " + std::to_string(config.k)};
    }
  }
  std::vector<cdr::UserId> published_ids;
  cdr::add_distinct_users(published_ids, published.fingerprints(),
                          "published release");
  {
    std::vector<cdr::UserId> new_ids;
    cdr::add_distinct_users(new_ids, new_users.fingerprints(), "new users");
  }
  for (std::size_t i = 0; i < new_users.size(); ++i) {
    const std::span<const cdr::UserId> members = new_users[i].members();
    if (members.size() != 1) {
      throw util::DatasetError{
          "new users must be single-user fingerprints; fingerprint " +
          std::to_string(i) + " is a group of " +
          std::to_string(members.size())};
    }
    if (std::binary_search(published_ids.begin(), published_ids.end(),
                           members.front())) {
      throw util::DatasetError{
          "user id " + std::to_string(members.front()) +
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

  CandidateGrid group_grid{group_bounds};
  const CandidateGrid newcomer_grid{newcomer_bounds};
  std::vector<Choice> choices(n);
  util::parallel_for(
      n,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Choice& choice = choices[i];
          if (!groups.empty()) {
            choice.group =
                nearest(new_users[i], newcomer_bounds[i], groups, group_bounds,
                        group_grid, 1, std::nullopt, &choice.tally)
                    .front();
          }
          const std::vector<Neighbor> peer =
              nearest(new_users[i], newcomer_bounds[i],
                      new_users.fingerprints(), newcomer_bounds, newcomer_grid,
                      1, static_cast<std::uint32_t>(i), &choice.tally);
          if (!peer.empty()) choice.to_peer = peer.front().stretch;
        }
      },
      /*min_chunk=*/1);
  SearchTally tally;
  for (const Choice& choice : choices) tally += choice.tally;

  std::vector<cdr::Fingerprint> peer_pool;
  for (std::size_t i = 0; i < n; ++i) {
    const bool join = !groups.empty() &&
                      (choices[i].group.stretch <= choices[i].to_peer);
    if (join) {
      const std::size_t g = choices[i].group.index;
      groups[g] = merge_fingerprints(groups[g], new_users[i], config);
      group_bounds[g] = node_bounds(groups[g]);
      group_grid.widen(static_cast<std::uint32_t>(g), group_bounds[g].box);
      ++result.stats.joined_existing_groups;
    } else {
      peer_pool.push_back(new_users[i]);
    }
  }

  // Newcomers pairing among themselves: run the standard greedy pass when
  // enough of them remain; otherwise fall back to joining groups.
  if (peer_pool.size() >= config.k) {
    const GloveResult pass =
        anonymize(cdr::FingerprintDataset{std::move(peer_pool)}, config);
    result.stats.glove = pass.stats;
    result.stats.formed_new_groups = pass.anonymized.size();
    for (const cdr::Fingerprint& fp : pass.anonymized.fingerprints()) {
      groups.push_back(fp);
    }
  } else {
    // With no published group to join, too few newcomers to form one.
    if (groups.empty() && !peer_pool.empty()) {
      util::check_dataset_size(peer_pool.size(), config.k);
    }
    for (const cdr::Fingerprint& straggler : peer_pool) {
      // Not absorb_leftovers: the group comes first in the merge here,
      // which decides member order when sample counts tie.
      const std::size_t g =
          nearest(straggler, node_bounds(straggler), groups, group_bounds,
                  group_grid, 1, std::nullopt, &tally)
              .front()
              .index;
      groups[g] = merge_fingerprints(groups[g], straggler, config);
      group_bounds[g] = node_bounds(groups[g]);
      group_grid.widen(static_cast<std::uint32_t>(g), group_bounds[g].box);
      ++result.stats.joined_existing_groups;
    }
  }

  // After the greedy pass's stats are in, so its count is kept.
  result.stats.glove.stretch_evaluations += tally.evaluations;
  add_search_counters(tally);
  result.anonymized = cdr::FingerprintDataset{
      std::move(groups), published.name() + "-updated"};
  return result;
}

}  // namespace glove::core
