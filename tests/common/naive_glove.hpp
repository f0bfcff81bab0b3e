// A naive reference for GLOVE's Alg. 1: every candidate stretch is exact
// and re-evaluated each round, with no heap, bounds or caches — slow, but
// obviously the greedy rule.  Parity suites compare core::anonymize to it.

#ifndef GLOVE_TESTS_COMMON_NAIVE_GLOVE_HPP
#define GLOVE_TESTS_COMMON_NAIVE_GLOVE_HPP

#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"

namespace glove::test {

/// Runs Alg. 1 by exhaustive search.  Each round merges the open pair with
/// the minimum (stretch, a, b), where (a, b) follows the candidate heap's
/// id convention: nodes are numbered inputs first, then merges in order; a
/// pair of two inputs is (lower id, higher id), any other pair is (newer
/// node, older node), and the merge is merge_fingerprints(a, b).  A final
/// sub-k leftover follows config.leftover_policy: merged as
/// merge_fingerprints(leftover, group) into the first minimum-stretch
/// finished group, or dropped.  The result is named like core::anonymize's.
[[nodiscard]] cdr::FingerprintDataset naive_glove(
    const cdr::FingerprintDataset& data, const core::GloveConfig& config);

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_NAIVE_GLOVE_HPP
