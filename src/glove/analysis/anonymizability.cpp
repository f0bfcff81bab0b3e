#include "glove/analysis/anonymizability.hpp"

#include <algorithm>
#include <limits>

#include "glove/stats/stats.hpp"
#include "glove/util/parallel.hpp"

namespace glove::analysis {

std::vector<UserStretchProfile> stretch_profiles(
    const cdr::FingerprintDataset& data,
    const std::vector<core::KGapEntry>& kgaps) {
  std::vector<UserStretchProfile> profiles(data.size());
  util::parallel_for(
      data.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t a = begin; a < end; ++a) {
          UserStretchProfile& profile = profiles[a];
          // Disaggregates one direction of eq. 10: each sample of `outer`
          // matched to the cheapest sample of `inner`.
          const auto collect = [&](const cdr::Fingerprint& outer,
                                   const cdr::Fingerprint& inner) {
            for (const cdr::Sample& so : outer.samples()) {
              core::SampleStretch best{};
              double best_total = std::numeric_limits<double>::infinity();
              for (const cdr::Sample& si : inner.samples()) {
                const core::SampleStretch d = core::sample_stretch(
                    so, outer.group_size(), si, inner.group_size());
                if (d.total() < best_total) {
                  best_total = d.total();
                  best = d;
                }
              }
              profile.total.push_back(best.total());
              profile.spatial.push_back(best.spatial);
              profile.temporal.push_back(best.temporal);
            }
          };
          for (const std::size_t b : kgaps[a].neighbors) {
            const cdr::Fingerprint& fa = data[a];
            const cdr::Fingerprint& fb = data[b];
            if (fa.empty() || fb.empty()) continue;
            if (fa.size() > fb.size()) {
              collect(fa, fb);
            } else if (fb.size() > fa.size()) {
              collect(fb, fa);
            } else {
              // Tied lengths: eq. 10 averages both directions; collecting
              // the raw efforts of both passes keeps the profile mean equal
              // to the fingerprint stretch effort (both have m entries).
              collect(fa, fb);
              collect(fb, fa);
            }
          }
        }
      },
      /*min_chunk=*/1);
  return profiles;
}

TailAnalysis analyze_tails(const std::vector<UserStretchProfile>& profiles) {
  TailAnalysis analysis;
  analysis.twi_total.reserve(profiles.size());
  analysis.twi_spatial.reserve(profiles.size());
  analysis.twi_temporal.reserve(profiles.size());
  analysis.temporal_share.reserve(profiles.size());
  for (const UserStretchProfile& p : profiles) {
    if (p.total.empty()) continue;
    analysis.twi_total.push_back(stats::tail_weight_index(p.total));
    analysis.twi_spatial.push_back(stats::tail_weight_index(p.spatial));
    analysis.twi_temporal.push_back(stats::tail_weight_index(p.temporal));
    double spatial_sum = 0.0;
    double temporal_sum = 0.0;
    for (const double v : p.spatial) spatial_sum += v;
    for (const double v : p.temporal) temporal_sum += v;
    const double total = spatial_sum + temporal_sum;
    analysis.temporal_share.push_back(total > 0.0 ? temporal_sum / total
                                                  : 0.0);
  }
  return analysis;
}

}  // namespace glove::analysis
