// An eager reference for core::nearest: every candidate's box bound is
// computed before the box -> slot -> exact cascade starts, over a plain id
// list instead of a core::CandidateGrid.  The grid-search tests compare
// core::nearest's result, its cascade work and the values it keeps with
// it, and the grid's least-box-bound queries with eager_least_box_bound.

#ifndef GLOVE_TESTS_COMMON_EAGER_NEAREST_HPP
#define GLOVE_TESTS_COMMON_EAGER_NEAREST_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "glove/core/scalability.hpp"

namespace glove::test {

/// core::nearest's contract over the candidates `ids` names (ascending)
/// other than `skip`: the same result, slot bounds, exact evaluations,
/// sample pairs and kept values.  `tally->box_bounds` counts a box bound
/// for every candidate without a known value; `cell_bounds` stays 0.
/// Throws std::invalid_argument when `ids` is empty or holds an id past
/// the candidates, the spans differ in length or `count` is 0.
[[nodiscard]] std::vector<core::Neighbor> eager_nearest(
    const cdr::Fingerprint& fp, const core::NodeBounds& own,
    std::span<const cdr::Fingerprint> candidates,
    std::span<const core::NodeBounds> bounds,
    std::span<const std::uint32_t> ids, std::size_t count,
    std::optional<std::uint32_t> skip = std::nullopt,
    core::SearchTally* tally = nullptr,
    std::vector<core::KnownStretch>* known = nullptr);

/// The least stretch_lower_bound(own, bounds[id].box) over `ids`, by a
/// scan of all of them; infinity when `ids` is empty.
[[nodiscard]] double eager_least_box_bound(
    const core::FingerprintBounds& own,
    std::span<const core::NodeBounds> bounds,
    std::span<const std::uint32_t> ids);

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_EAGER_NEAREST_HPP
