// A naive reference for the k-gap (eq. 11): every stretch of a row is
// evaluated exactly and the row sorted whole — slow, but obviously the
// definition.  The k-gap tests compare core::k_gaps to it.

#ifndef GLOVE_TESTS_COMMON_NAIVE_KGAP_HPP
#define GLOVE_TESTS_COMMON_NAIVE_KGAP_HPP

#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/core/kgap.hpp"

namespace glove::test {

/// Delta_a^k of every fingerprint by full scan: fingerprint_stretch(a, b)
/// to every other b, sorted by (stretch, index); the first k-1 are the
/// neighbours, and the gap is their stretches summed in that order and
/// divided by k-1.  Requires 2 <= k <= data.size().
[[nodiscard]] std::vector<core::KGapEntry> naive_k_gaps(
    const cdr::FingerprintDataset& data, std::uint32_t k,
    const core::StretchLimits& limits = {});

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_NAIVE_KGAP_HPP
