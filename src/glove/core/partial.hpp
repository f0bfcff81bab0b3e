// Partial-fingerprint anonymization — the relaxation the paper sketches
// for higher privacy levels (Sec. 7, Sec. 9): instead of hiding the
// *full-length* fingerprint (robust to an attacker that knows the whole
// trajectory), assume the adversary only knows each user's top-L most
// frequented locations (the Zang & Bolot attacker of ref. [5]) and
// k-anonymize just that attack surface.
//
// The published record keeps only the samples at the user's top-L tiles,
// generalized by the normal GLOVE pipeline; everything else is withheld.
// This is strictly weaker privacy than full-length GLOVE — attacks using
// out-of-surface knowledge are not countered — but it is much cheaper in
// accuracy, which is exactly the trade-off the paper points to for k > 5.

#ifndef GLOVE_CORE_PARTIAL_HPP
#define GLOVE_CORE_PARTIAL_HPP

#include "glove/core/glove.hpp"

namespace glove::core {

/// Partial anonymization configuration: the GLOVE knobs plus the assumed
/// adversary knowledge.
struct PartialConfig : GloveConfig {
  /// Size of the assumed adversary knowledge: the L most frequented
  /// spatial tiles per user.
  std::size_t top_locations = 3;
  /// Tile granularity used to rank locations.
  double tile_m = 1'000.0;
};

/// Result of a partial run: `anonymized` contains the k-anonymized
/// top-location records; `withheld_samples` counts the out-of-surface
/// samples that were not published.
struct PartialResult {
  GloveResult glove;
  std::uint64_t withheld_samples = 0;
};

/// Restricts each fingerprint to the samples falling in its `top_locations`
/// most frequented tiles (exposed for tests and analysis).
[[nodiscard]] cdr::FingerprintDataset reduce_to_top_locations(
    const cdr::FingerprintDataset& data, std::size_t top_locations,
    double tile_m);

/// Runs GLOVE on the reduced (top-locations) fingerprints.
[[nodiscard]] PartialResult anonymize_partial(
    const cdr::FingerprintDataset& data, const PartialConfig& config);

}  // namespace glove::core

#endif  // GLOVE_CORE_PARTIAL_HPP
