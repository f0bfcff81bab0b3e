// Synthetic CDR generation: Exploration-and-Preferential-Return mobility
// (Song et al., Nature Physics 2010) over a clustered antenna network, with
// an inhomogeneous-Poisson call process modulated by a diurnal/weekly
// profile and heterogeneous per-user rates.
//
// This substrate substitutes the proprietary D4D Ivory Coast and Senegal
// traces, which are not public: it reproduces the statistical properties the
// paper's analysis rests on — sparse and bursty temporal sampling, strong
// spatial locality (median radius of gyration ~2 km), heavy-tailed
// inter-event times and per-user heterogeneity.

#ifndef GLOVE_SYNTH_GENERATOR_HPP
#define GLOVE_SYNTH_GENERATOR_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "glove/cdr/builder.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/synth/network.hpp"

namespace glove::synth {

/// Exploration-and-Preferential-Return mobility parameters.
///
/// Defaults are tuned so the generated population reproduces the locality
/// statistics the paper reports for the D4D traces (Sec. 7.3): median
/// radius of gyration around 2 km with a heavy tail of travellers
/// (mean ~10 km).  That locality is load-bearing for the reproduction —
/// it is what keeps the *spatial* side of anonymization cheap (Sec. 5.3).
struct MobilityConfig {
  /// Exploration probability is rho * S^-gamma, with S the number of
  /// distinct locations visited so far (Song et al. form).
  double rho = 0.35;
  double gamma = 0.21;
  /// Stay durations are lognormal (minutes): exp(mu) is the median stay.
  double stay_logmean = 5.6;  ///< exp(5.6) ~ 270 min
  double stay_logsd = 0.9;
  /// Exploration jump lengths follow a truncated Pareto: mostly sub-km
  /// hops with a power-law tail of long trips.
  double jump_min_m = 600.0;
  double jump_exponent = 2.0;
  double jump_max_m = 150'000.0;
  /// Probability that a relocation happening at night returns home.
  double night_home_prob = 0.9;
  /// Every user gets a second anchor ("work") drawn within this distance
  /// of home; commuting between the two anchors dominates weekday
  /// daytime and produces the ~2 km median radius of gyration of real CDR.
  double work_radius_m = 6'000.0;
};

/// Call/traffic activity parameters.
struct ActivityConfig {
  /// Per-user daily event rate: lognormal with this median...
  double median_events_per_day = 10.0;
  double events_logsd = 0.9;
  /// ...and clamped below at this floor (models the d4d-sen selection of
  /// users active >75% of the period; 0 disables).
  double min_events_per_day = 0.0;
  /// Weekend activity multiplier.
  double weekend_factor = 0.9;
  /// Each user draws an inactive-day probability uniformly from
  /// [0, max_inactive_day_prob]: on an inactive day the user generates no
  /// events at all.  Real CDR exhibits such day-scale silent gaps (phones
  /// off, out of coverage, no traffic) — they are what makes trajectory
  /// time-alignment so costly for perturbation-based anonymizers (Tab. 2).
  double max_inactive_day_prob = 0.0;
};

/// Full synthetic dataset configuration.
struct SynthConfig {
  std::string name = "synth";
  std::size_t users = 1'000;
  double days = 14.0;
  NetworkConfig network;
  MobilityConfig mobility;
  ActivityConfig activity;
  /// Geographic anchor of the region centre, used when exporting events as
  /// lat/lon CDR (inverse Lambert projection).
  geo::LatLon region_anchor{6.82, -5.28};
  std::uint64_t seed = 7;
};

/// Hourly activity profile (relative weights, normalized internally):
/// quiet nights, business-hours plateau, evening peak.
[[nodiscard]] const std::array<double, 24>& diurnal_profile() noexcept;

/// Generates the raw planar CDR events of all users, sorted by user then
/// time.  Deterministic in `config.seed`.
[[nodiscard]] std::vector<cdr::PlanarEvent> generate_events(
    const SynthConfig& config);

/// Generates events and assembles them into a fingerprint dataset at the
/// paper's original granularity (100 m, 1 min).
[[nodiscard]] cdr::FingerprintDataset generate_dataset(
    const SynthConfig& config);

/// Converts planar events to geographic CDR events by inverting the
/// Lambert projection anchored at `config.region_anchor` (region centre).
[[nodiscard]] std::vector<cdr::CdrEvent> to_latlon_events(
    const std::vector<cdr::PlanarEvent>& events, const SynthConfig& config);

/// Preset mirroring the d4d-civ dataset (Sec. 3): Ivory-Coast-scale region,
/// Abidjan-dominated city mix, modest activity floor.  `users` scales the
/// population (paper: 82,000 after screening).
[[nodiscard]] SynthConfig civ_like(std::size_t users, std::uint64_t seed = 11);

/// Preset mirroring the d4d-sen dataset (Sec. 3): Senegal-scale region,
/// Dakar-dominated mix, high activity floor (the released data only keeps
/// users active >75% of the period; paper: 320,000 users).
[[nodiscard]] SynthConfig sen_like(std::size_t users, std::uint64_t seed = 13);

}  // namespace glove::synth

#endif  // GLOVE_SYNTH_GENERATOR_HPP
