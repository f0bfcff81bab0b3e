// GLOVE (Alg. 1): greedy k-anonymization of a fingerprint dataset through
// specialized generalization.  Repeatedly merges the two not-yet-anonymized
// fingerprints at minimum stretch effort until every published fingerprint
// hides at least k subscribers.

#ifndef GLOVE_CORE_GLOVE_HPP
#define GLOVE_CORE_GLOVE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/core/merge.hpp"
#include "glove/core/stretch.hpp"
#include "glove/util/dataset_error.hpp"

namespace glove::core {

/// What to do with a final fingerprint whose group is still smaller than k
/// when no other un-anonymized fingerprint is left to pair it with.  The
/// paper's Alg. 1 leaves this case unspecified; absorb_leftovers applies
/// the policy.
enum class LeftoverPolicy {
  /// Merge the leftover group into the nearest already-anonymized
  /// fingerprint; no user is lost (default).
  kMergeIntoNearest,
  /// Drop the leftover group from the output (counted as discarded).
  kSuppress,
};

/// GLOVE configuration: the merge options every merge runs with (stretch
/// limits, suppression, reshaping) plus the anonymity level and the
/// leftover policy.  The layers above extend or hold this struct (the
/// sharded run, the Engine's api::RunConfig) instead of mirroring it, so
/// each knob is declared, documented and defaulted here once.
struct GloveConfig : MergeOptions {
  /// Target anonymity level; every output fingerprint hides >= k users.
  std::uint32_t k = 2;
  LeftoverPolicy leftover_policy = LeftoverPolicy::kMergeIntoNearest;
};

/// Throws std::invalid_argument unless k >= 2, both stretch saturation
/// limits are positive and finite, both weights finite and non-negative
/// (a negative weight would make the bounds every core::nearest search
/// prunes by unsound), and every suppression threshold > 0 (+inf leaves
/// an axis unbounded).  Each test is written so that NaN fails it.
void check_config(const GloveConfig& config);

/// Run counters for the paper's cost accounting (Tab. 2 rows and Sec. 6.3).
struct GloveStats {
  std::uint64_t input_users = 0;
  std::uint64_t input_samples = 0;
  std::uint64_t output_groups = 0;
  std::uint64_t output_samples = 0;  ///< published (merged) samples
  std::uint64_t merges = 0;
  /// Original samples dropped by suppression ("Deleted samples" of Tab. 2).
  std::uint64_t deleted_samples = 0;
  /// Users dropped (non-zero only under LeftoverPolicy::kSuppress).
  std::uint64_t discarded_fingerprints = 0;
  /// Fingerprint-stretch evaluations performed (throughput accounting).
  std::uint64_t stretch_evaluations = 0;
  /// Heap seeding: per-fingerprint bounds, the candidate grid, and each
  /// node's least box bound to its older open nodes, one grid query per
  /// node.
  double init_seconds = 0.0;
  double merge_seconds = 0.0;  ///< greedy loop

  /// Adds `part`'s per-run cost counters (merges, deletions, discards,
  /// stretch evaluations, phase times) into this one.  Dataset-shape
  /// fields (input/output sizes) are left alone — the sharded run, which
  /// aggregates its jobs, sets those from its own totals.
  void accumulate_costs(const GloveStats& part) {
    merges += part.merges;
    deleted_samples += part.deleted_samples;
    discarded_fingerprints += part.discarded_fingerprints;
    stretch_evaluations += part.stretch_evaluations;
    init_seconds += part.init_seconds;
    merge_seconds += part.merge_seconds;
  }
};

/// Result of an anonymization run: the k-anonymized dataset plus counters.
/// Each output fingerprint lists the users it hides in `members()`; every
/// one of those users publishes that identical generalized fingerprint.
struct GloveResult {
  cdr::FingerprintDataset anonymized;
  GloveStats stats;
};

/// Runs GLOVE on `data`.  Requires a config that passes check_config
/// (std::invalid_argument otherwise) and k <= data.size() < 2^30 (a
/// dataset smaller than the target crowd cannot be k-anonymized;
/// util::DatasetError otherwise).
/// Deterministic for a given input and configuration, independent of
/// thread count.
///
/// The candidate heap holds one key per open node, never one entry per
/// pair, so its state is O(|M|): pair {x, y} belongs to the newer node,
/// and a node's key is a lower bound on its least pair, seeded with the
/// least stretch_lower_bound.  The open nodes sit in one CandidateGrid
/// (scalability.hpp): each seeded or new node's key is a least-box-bound
/// query on it, and a key that reaches the top without naming an open
/// pair is recomputed by one nearest search over the node's older open
/// nodes in it, through the cell -> box -> slot -> exact cascade, so most
/// pairs are never bounded by their boxes or evaluated exactly; the merges
/// are those of a heap holding every exact stretch.  Keys that reach the
/// top together are rescanned as one batch on util::ThreadPool::shared(),
/// so the caller must not itself be a task of that pool.  The final sub-k
/// leftover, if any, goes through absorb_leftovers over the finished
/// groups.
[[nodiscard]] GloveResult anonymize(const cdr::FingerprintDataset& data,
                                    const GloveConfig& config);

/// Applies config.leftover_policy to sub-k leftovers that have nobody left
/// to pair with (GLOVE's last open fingerprint, or a sharded run's
/// reconcile tail).  kMergeIntoNearest merges each leftover, in order, into
/// its core::nearest group of `groups` (least stretch, ties to the lower
/// index) as merge_fingerprints(leftover, group), in place;
/// std::logic_error when `groups` is empty.  kSuppress counts
/// each leftover's users as discarded and its original samples (summed
/// contributors) as deleted.  Cost counters accumulate into `stats`;
/// returns how many leftovers were absorbed.
std::size_t absorb_leftovers(std::vector<cdr::Fingerprint> tail,
                             std::vector<cdr::Fingerprint>& groups,
                             const GloveConfig& config, GloveStats& stats);

/// Checks the k-anonymity postcondition: every fingerprint in `data` hides
/// at least k members.  (Each member publishes the group's fingerprint, so
/// group size >= k is exactly record-level k-anonymity.)
[[nodiscard]] bool is_k_anonymous(const cdr::FingerprintDataset& data,
                                  std::uint32_t k);

}  // namespace glove::core

#endif  // GLOVE_CORE_GLOVE_HPP
