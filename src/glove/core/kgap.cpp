#include "glove/core/kgap.hpp"

#include <span>
#include <stdexcept>

#include "glove/core/scalability.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {

std::vector<KGapEntry> k_gaps(const cdr::FingerprintDataset& data,
                              std::uint32_t k, const StretchLimits& limits) {
  if (k < 2) throw std::invalid_argument{"k-gap requires k >= 2"};
  if (data.size() < k) {
    throw std::invalid_argument{
        "k-gap requires at least k fingerprints in the dataset"};
  }
  const std::span<const cdr::Fingerprint> fingerprints = data.fingerprints();
  const std::vector<NodeBounds> bounds = node_bounds_of(fingerprints);
  const CandidateGrid grid{bounds};
  const std::size_t neighbors = k - 1;
  std::vector<KGapEntry> result(data.size());
  util::parallel_for(
      data.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t a = begin; a < end; ++a) {
          KGapEntry& entry = result[a];
          entry.neighbors.reserve(neighbors);
          double total = 0.0;
          for (const Neighbor& n :
               nearest(fingerprints[a], bounds[a], fingerprints, bounds, grid,
                       limits, neighbors, static_cast<std::uint32_t>(a))) {
            total += n.stretch;
            entry.neighbors.push_back(n.index);
          }
          entry.gap = total / static_cast<double>(neighbors);
        }
      },
      /*min_chunk=*/1);
  return result;
}

std::vector<double> k_gap_values(const cdr::FingerprintDataset& data,
                                 std::uint32_t k,
                                 const StretchLimits& limits) {
  const std::vector<KGapEntry> entries = k_gaps(data, k, limits);
  std::vector<double> values;
  values.reserve(entries.size());
  for (const KGapEntry& e : entries) values.push_back(e.gap);
  return values;
}

}  // namespace glove::core
