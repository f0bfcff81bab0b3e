// Synthetic radio-access network: antenna sites clustered around cities
// plus rural scatter, mimicking the antenna layout of the D4D datasets
// (this library's substitute for the proprietary Orange traces;
// synth/generator.hpp lists the properties the substitute keeps).

#ifndef GLOVE_SYNTH_NETWORK_HPP
#define GLOVE_SYNTH_NETWORK_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "glove/geo/geo.hpp"

namespace glove::synth {

/// An urban cluster of antennas.
struct City {
  geo::PlanarPoint center;
  double radius_m = 10'000.0;  ///< antenna scatter (one std deviation)
  double weight = 1.0;         ///< share of population anchored here
};

/// Antenna network generator parameters.
struct NetworkConfig {
  std::size_t antennas = 1'000;
  /// Side of the square region, metres (Ivory Coast/Senegal scale:
  /// several hundred kilometres).
  double region_size_m = 600'000.0;
  std::size_t cities = 10;
  /// Fraction of antennas placed inside cities (vs rural scatter).
  double urban_fraction = 0.7;
  /// Zipf exponent of city weights (city 1 dominates, like Abidjan/Dakar).
  double city_zipf_exponent = 1.0;
  std::uint64_t seed = 42;
};

/// A generated antenna network over a planar region.
class AntennaNetwork {
 public:
  explicit AntennaNetwork(const NetworkConfig& config);

  [[nodiscard]] std::span<const geo::PlanarPoint> antennas() const noexcept {
    return antennas_;
  }
  [[nodiscard]] std::span<const City> cities() const noexcept {
    return cities_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return antennas_.size(); }
  [[nodiscard]] const geo::PlanarPoint& antenna(std::size_t i) const {
    return antennas_[i];
  }

  /// The dominant city (largest weight) — the geofence anchor for the
  /// citywide subsets of Tab. 2.
  [[nodiscard]] const City& main_city() const;

  /// Antennas within `radius_m` (Chebyshev) of a point; used for
  /// exploration jumps.  Returns indices sorted by distance.
  [[nodiscard]] std::vector<std::size_t> antennas_near(
      geo::PlanarPoint p, double radius_m) const;

  /// Index of the antenna nearest to `p`.
  [[nodiscard]] std::size_t nearest_antenna(geo::PlanarPoint p) const;

  /// Samples a home antenna: city chosen proportionally to weight (with a
  /// rural remainder), then an antenna near that city.
  template <typename Rng>
  [[nodiscard]] std::size_t sample_home(Rng& rng) const {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    double acc = 0.0;
    for (std::size_t c = 0; c < cities_.size(); ++c) {
      acc += cities_[c].weight;
      if (u < acc) {
        const auto& members = city_antennas_[c];
        if (!members.empty()) {
          return members[rng() % members.size()];
        }
        break;
      }
    }
    return rng() % antennas_.size();
  }

 private:
  std::vector<geo::PlanarPoint> antennas_;
  std::vector<City> cities_;
  std::vector<std::vector<std::size_t>> city_antennas_;
};

}  // namespace glove::synth

#endif  // GLOVE_SYNTH_NETWORK_HPP
