// Shared deterministic dataset builders for the GLOVE test suites.
//
// Most suites need the same three kinds of input: hand-placed samples at the
// original granularity (100 m, 1 min), small structured datasets with known
// optimal groupings, and seeded synthetic CDR populations.  Build them here
// once instead of re-rolling them per suite.

#ifndef GLOVE_TESTS_COMMON_FIXTURES_HPP
#define GLOVE_TESTS_COMMON_FIXTURES_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "glove/cdr/dataset.hpp"
#include "glove/cdr/sample.hpp"
#include "glove/core/glove.hpp"

namespace glove::test {

/// Sample at the original granularity of Sec. 3: a 100 m x 100 m cell
/// entered at minute `t` with the 1-minute timestamp accuracy.
[[nodiscard]] cdr::Sample cell(double x, double y, double t);

/// Fully explicit sample: rectangle [x, x+dx] x [y, y+dy] over [t, t+dt].
[[nodiscard]] cdr::Sample box(double x, double dx, double y, double dy,
                              double t, double dt);

/// A fingerprint hiding `size` users with consecutive ids from `first`.
[[nodiscard]] cdr::Fingerprint group_fingerprint(
    std::uint32_t size, cdr::UserId first, std::vector<cdr::Sample> samples);

/// `fp` with every sample's position and extent scaled by `space` and its
/// start and duration by `time`.  Scaled by 10 and 8, geometry that
/// saturates a 2 km / 60 min stretch reaches the same saturation at the
/// paper's 20 km / 480 min thresholds.
[[nodiscard]] cdr::Fingerprint scaled(const cdr::Fingerprint& fp, double space,
                                      double time);

/// Seven users: three pairs of near-identical fingerprints at mutual
/// distance ~5 km / ~10 h, plus one far outlier (user 6).  The pairs are
/// each other's nearest neighbours, so a correct GLOVE run at k=2 merges
/// exactly {0,1}, {2,3}, {4,5} and attaches the outlier somewhere.
[[nodiscard]] cdr::FingerprintDataset paired_dataset();

/// Two fingerprints exercising every serialized field: a {1,2} group whose
/// second sample is generalized (multi-contributor, wide extents) and a
/// singleton user 7.  Named "io-test".
[[nodiscard]] cdr::FingerprintDataset grouped_io_dataset();

/// `users` single-user fingerprints with 1..`max_samples_per_user` samples
/// of uniformly random extents.  Deterministic in `seed`; exercises
/// serialization and metric code on unstructured values.  Ids start at
/// `first_user` — offset them when the dataset plays the newcomers of an
/// incremental update, which rejects ids colliding with the base release.
[[nodiscard]] cdr::FingerprintDataset random_dataset(
    std::size_t users, std::uint64_t seed,
    std::size_t max_samples_per_user = 6, cdr::UserId first_user = 0);

/// GLOVE's default knobs at anonymity level k.
[[nodiscard]] core::GloveConfig glove_config(std::uint32_t k = 2);

/// Small seeded synthetic population (civ-like preset) for end-to-end
/// tests: `users` users over `days` days at the original granularity.
[[nodiscard]] cdr::FingerprintDataset small_synth_dataset(
    std::size_t users = 60, double days = 3.0, std::uint64_t seed = 5);

/// `users` fingerprints of `samples` samples in one 1 km square: sample i
/// falls in a random 100 m cell within half an hour after hour 4i.  Every
/// bounding box overlaps every other, so every box bound is 0, and slot i
/// of one fingerprint is never more than 900 m and half an hour from slot
/// i of another, so the slot bounds stay small and GLOVE refines most
/// candidate pairs (86-89% at k = 2 on the suites' inputs).
/// Deterministic in `seed`.
[[nodiscard]] cdr::FingerprintDataset dense_dataset(std::size_t users,
                                                    std::size_t samples,
                                                    std::uint64_t seed);

}  // namespace glove::test

#endif  // GLOVE_TESTS_COMMON_FIXTURES_HPP
