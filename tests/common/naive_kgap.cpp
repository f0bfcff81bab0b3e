#include "common/naive_kgap.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "glove/core/stretch.hpp"

namespace glove::test {

std::vector<core::KGapEntry> naive_k_gaps(const cdr::FingerprintDataset& data,
                                          std::uint32_t k,
                                          const core::StretchLimits& limits) {
  const std::size_t n = data.size();
  const std::size_t neighbors = k - 1;
  std::vector<core::KGapEntry> result(n);
  std::vector<std::pair<double, std::size_t>> row;
  for (std::size_t a = 0; a < n; ++a) {
    row.clear();
    for (std::size_t b = 0; b < n; ++b) {
      if (b == a) continue;
      row.emplace_back(core::fingerprint_stretch(data[a], data[b], limits), b);
    }
    std::sort(row.begin(), row.end());
    core::KGapEntry& entry = result[a];
    double total = 0.0;
    for (std::size_t i = 0; i < neighbors; ++i) {
      total += row[i].first;
      entry.neighbors.push_back(row[i].second);
    }
    entry.gap = total / static_cast<double>(neighbors);
  }
  return result;
}

}  // namespace glove::test
