// The k-gap (eq. 11): how hard it is to hide each subscriber in a crowd of
// k within the same dataset.  Drives the anonymizability analysis of Sec. 5.

#ifndef GLOVE_CORE_KGAP_HPP
#define GLOVE_CORE_KGAP_HPP

#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"

namespace glove::core {

/// k-gap of one user together with the identity of its k-1 nearest
/// fingerprints (the set N_a^{k-1} used by the Sec. 5.3 disaggregation).
struct KGapEntry {
  double gap = 0.0;                      ///< Delta_a^k, in [0, 1]
  std::vector<std::size_t> neighbors;    ///< indices of N_a^{k-1}, ascending
                                         ///< by stretch effort
};

/// Computes Delta_a^k for every fingerprint in `data` (eq. 11): the mean
/// fingerprint stretch effort to the k-1 nearest other fingerprints, ties
/// broken by the lower index.  Each row is one core::nearest search (k-1
/// neighbours, skipping the row's own fingerprint), so distant pairs are
/// never evaluated exactly; gaps and neighbour lists equal those of a full
/// scan bit for bit.  Rows run in parallel on the shared thread pool.
/// Requires k >= 2 and data.size() >= k; throws std::invalid_argument
/// otherwise.
[[nodiscard]] std::vector<KGapEntry> k_gaps(const cdr::FingerprintDataset& data,
                                            std::uint32_t k);

/// Convenience: just the gap values, same order as `data`.
[[nodiscard]] std::vector<double> k_gap_values(
    const cdr::FingerprintDataset& data, std::uint32_t k);

}  // namespace glove::core

#endif  // GLOVE_CORE_KGAP_HPP
