#include "glove/core/partial.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "glove/geo/geo.hpp"

namespace glove::core {

cdr::FingerprintDataset reduce_to_top_locations(
    const cdr::FingerprintDataset& data, std::size_t top_locations,
    double tile_m) {
  if (top_locations == 0) {
    throw std::invalid_argument{"top_locations must be >= 1"};
  }
  const geo::Grid grid{tile_m};
  std::vector<cdr::Fingerprint> reduced;
  reduced.reserve(data.size());
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    std::unordered_map<geo::GridCell, std::size_t> counts;
    for (const cdr::Sample& s : fp.samples()) {
      ++counts[grid.cell_of(
          {s.sigma.x + s.sigma.dx / 2, s.sigma.y + s.sigma.dy / 2})];
    }
    std::vector<std::pair<std::size_t, geo::GridCell>> ranked;
    ranked.reserve(counts.size());
    // Hash-order snapshot is fine: the sort below carries a full
    // (count, ix, iy) tie-break, so the ranking is order-insensitive.
    for (const auto& [cell, count] : counts) ranked.emplace_back(count, cell);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                if (a.second.ix != b.second.ix) {
                  return a.second.ix < b.second.ix;
                }
                return a.second.iy < b.second.iy;
              });
    const std::size_t keep = std::min(top_locations, ranked.size());
    std::vector<geo::GridCell> kept_cells;
    kept_cells.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      kept_cells.push_back(ranked[i].second);
    }
    std::vector<cdr::Sample> kept;
    for (const cdr::Sample& s : fp.samples()) {
      const geo::GridCell cell = grid.cell_of(
          {s.sigma.x + s.sigma.dx / 2, s.sigma.y + s.sigma.dy / 2});
      if (std::find(kept_cells.begin(), kept_cells.end(), cell) !=
          kept_cells.end()) {
        kept.push_back(s);
      }
    }
    if (kept.empty()) continue;
    reduced.emplace_back(
        std::vector<cdr::UserId>{fp.members().begin(), fp.members().end()},
        std::move(kept));
  }
  return cdr::FingerprintDataset{std::move(reduced),
                                 data.name() + "-top" +
                                     std::to_string(top_locations)};
}

PartialResult anonymize_partial(const cdr::FingerprintDataset& data,
                                const PartialConfig& config) {
  PartialResult result;
  const cdr::FingerprintDataset reduced =
      reduce_to_top_locations(data, config.top_locations, config.tile_m);
  result.withheld_samples = data.total_samples() - reduced.total_samples();
  result.glove = anonymize(reduced, config);
  return result;
}

}  // namespace glove::core
