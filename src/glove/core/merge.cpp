#include "glove/core/merge.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace glove::core {

cdr::Sample merge_samples(const cdr::Sample& a,
                          const cdr::Sample& b) noexcept {
  cdr::Sample m;
  // eq. 12: *_m = min(*_a, *_b); eq. 13: d*_m = max(end_a, end_b) - *_m.
  m.sigma.x = std::min(a.sigma.x, b.sigma.x);
  m.sigma.dx = std::max(a.sigma.x_end(), b.sigma.x_end()) - m.sigma.x;
  m.sigma.y = std::min(a.sigma.y, b.sigma.y);
  m.sigma.dy = std::max(a.sigma.y_end(), b.sigma.y_end()) - m.sigma.y;
  m.tau.t = std::min(a.tau.t, b.tau.t);
  m.tau.dt = std::max(a.tau.t_end(), b.tau.t_end()) - m.tau.t;
  m.contributors = a.contributors + b.contributors;
  return m;
}

std::vector<cdr::Sample> reshape_samples(std::vector<cdr::Sample> samples) {
  if (samples.size() < 2) return samples;
  std::sort(samples.begin(), samples.end(), cdr::by_time);
  std::vector<cdr::Sample> out;
  out.reserve(samples.size());
  out.push_back(samples.front());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    if (cdr::time_overlaps(out.back(), samples[i])) {
      out.back() = merge_samples(out.back(), samples[i]);
    } else {
      out.push_back(samples[i]);
    }
  }
  return out;
}

std::vector<cdr::Sample> suppress_samples(
    std::vector<cdr::Sample> samples, const SuppressionThresholds& thresholds,
    MergeStats* stats) {
  std::vector<cdr::Sample> kept;
  kept.reserve(samples.size());
  for (const cdr::Sample& s : samples) {
    const bool over_space =
        s.sigma.accuracy_m() > thresholds.max_spatial_extent_m;
    const bool over_time = s.tau.dt > thresholds.max_temporal_extent_min;
    if (over_space || over_time) {
      if (stats != nullptr) {
        stats->suppressed_original_samples += s.contributors;
        ++stats->suppressed_merged_samples;
      }
      continue;
    }
    kept.push_back(s);
  }
  return kept;
}

cdr::Fingerprint merge_fingerprints(const cdr::Fingerprint& a,
                                    const cdr::Fingerprint& b,
                                    const MergeOptions& options,
                                    MergeStats* stats) {
  const cdr::Fingerprint& longer = a.size() >= b.size() ? a : b;
  const cdr::Fingerprint& shorter = a.size() >= b.size() ? b : a;
  const std::uint32_t n_long = longer.group_size();
  const std::uint32_t n_short = shorter.group_size();
  const auto long_samples = longer.samples();
  const auto short_samples = shorter.samples();

  std::vector<cdr::UserId> members{longer.members().begin(),
                                   longer.members().end()};
  members.insert(members.end(), shorter.members().begin(),
                 shorter.members().end());

  // Degenerate inputs (a fingerprint emptied by suppression): the merged
  // fingerprint is whatever samples remain on the other side.
  if (long_samples.empty() || short_samples.empty()) {
    const auto& source = long_samples.empty() ? short_samples : long_samples;
    return cdr::Fingerprint{std::move(members),
                            {source.begin(), source.end()}};
  }

  // The population weights of eq. 4/7 depend only on the two group sizes:
  // they are cached here once per merged pair instead of being recomputed
  // for each of the O(m_a * m_b) sample pairs the two stages evaluate.
  const PairWeights long_to_short = pair_weights(n_long, n_short);
  const PairWeights short_to_long = pair_weights(n_short, n_long);

  // Stage 1: match each sample of the longer fingerprint to the
  // minimum-stretch sample of the shorter one; samples pointing at the same
  // target are unioned together with it (Fig. 6a, top).
  std::vector<cdr::Sample> merged{short_samples.begin(), short_samples.end()};
  std::vector<bool> target_used(short_samples.size(), false);
  for (const cdr::Sample& sl : long_samples) {
    std::size_t best_j = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < short_samples.size(); ++j) {
      const double d =
          sample_stretch(sl, short_samples[j], long_to_short, options.limits)
              .total();
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    merged[best_j] = merge_samples(merged[best_j], sl);
    target_used[best_j] = true;
    if (stats != nullptr) ++stats->sample_unions;
  }

  // Stage 2: shorter-fingerprint samples never chosen as a target are
  // matched against the stage-1 results (Fig. 6a, bottom).
  std::vector<cdr::Sample> result;
  result.reserve(short_samples.size());
  std::vector<std::size_t> unmatched;
  for (std::size_t j = 0; j < short_samples.size(); ++j) {
    if (target_used[j]) {
      result.push_back(merged[j]);
    } else {
      unmatched.push_back(j);
    }
  }
  if (result.empty()) {
    // No stage-1 target exists only if the longer fingerprint was empty,
    // handled above; defensively fall back to raw targets.
    result = std::move(merged);
    unmatched.clear();
  }
  for (const std::size_t j : unmatched) {
    const cdr::Sample& ss = short_samples[j];
    std::size_t best_i = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < result.size(); ++i) {
      const double d =
          sample_stretch(ss, result[i], short_to_long, options.limits)
              .total();
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    result[best_i] = merge_samples(result[best_i], ss);
    if (stats != nullptr) ++stats->sample_unions;
  }

  // Suppression applies to the outputs of eq. 12-13 *before* reshaping
  // (Sec. 7.1): dropping an over-stretched union early costs only its own
  // contributors and breaks the overlap chains that reshaping would
  // otherwise cascade into even coarser samples.
  if (options.suppression.has_value()) {
    result = suppress_samples(std::move(result), *options.suppression, stats);
  }
  if (options.reshape) {
    result = reshape_samples(std::move(result));
    if (options.suppression.has_value()) {
      // Reshaping unions overlapping samples and may re-exceed the
      // thresholds; a second pass keeps the published-extent guarantee.
      result =
          suppress_samples(std::move(result), *options.suppression, stats);
    }
  }

  cdr::Fingerprint group{std::move(members), std::move(result)};
  cdr::check_generalized(group);
  return group;
}

}  // namespace glove::core
