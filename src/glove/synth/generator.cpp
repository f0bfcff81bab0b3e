#include "glove/synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "glove/util/rng.hpp"

namespace glove::synth {

namespace {

constexpr double kMinutesPerDay = 1440.0;

double normal(util::Xoshiro256& rng) {
  const double u1 = std::max(util::uniform01(rng), 1e-12);
  const double u2 = util::uniform01(rng);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double lognormal(util::Xoshiro256& rng, double logmean, double logsd) {
  return std::exp(logmean + logsd * normal(rng));
}

/// Truncated Pareto jump length in [min_m, max_m].
double pareto_jump(util::Xoshiro256& rng, const MobilityConfig& m) {
  const double alpha = m.jump_exponent - 1.0;  // P(D > d) ~ d^-(beta-1)
  const double u = std::max(util::uniform01(rng), 1e-12);
  const double d = m.jump_min_m * std::pow(u, -1.0 / std::max(alpha, 0.05));
  return std::min(d, m.jump_max_m);
}

/// Small-lambda Poisson sampler (Knuth).
std::size_t poisson(util::Xoshiro256& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 60.0) {
    // Normal approximation for large rates.
    const double n = lambda + std::sqrt(lambda) * normal(rng);
    return n > 0.0 ? static_cast<std::size_t>(std::llround(n)) : 0;
  }
  const double limit = std::exp(-lambda);
  std::size_t k = 0;
  double product = util::uniform01(rng);
  while (product > limit) {
    ++k;
    product *= util::uniform01(rng);
  }
  return k;
}

bool is_night(double minute_of_day) {
  return minute_of_day < 6.0 * 60.0 || minute_of_day >= 22.0 * 60.0;
}

bool is_weekend(double time_min) {
  // Epoch starts on a Monday: days 5 and 6 of each week are the weekend.
  const auto day = static_cast<long long>(time_min / kMinutesPerDay);
  return day % 7 >= 5;
}

/// A user's movement timeline: stepwise-constant antenna over time.
struct Timeline {
  std::vector<double> start_min;        // ascending
  std::vector<std::size_t> antenna;     // parallel to start_min

  [[nodiscard]] std::size_t at(double t) const {
    const auto it =
        std::upper_bound(start_min.begin(), start_min.end(), t);
    const auto idx = static_cast<std::size_t>(it - start_min.begin());
    return antenna[idx == 0 ? 0 : idx - 1];
  }
};

/// Builds one user's EPR trajectory over the whole period.
Timeline build_timeline(util::Xoshiro256& rng, const AntennaNetwork& network,
                        const SynthConfig& config, std::size_t home) {
  Timeline timeline;
  const double horizon = config.days * kMinutesPerDay;
  const MobilityConfig& m = config.mobility;

  // Every user commutes between a home and a "work" anchor near it: the
  // canonical CDR pattern, and what yields the ~2 km median radius of
  // gyration of the D4D traces.  Visit counts drive preferential return;
  // home and work are seeded with extra mass so they dominate.
  std::size_t work = home;
  {
    const auto nearby =
        network.antennas_near(network.antenna(home), m.work_radius_m);
    if (nearby.size() > 1) {
      // Skip index 0 (home itself, at distance 0).
      work = nearby[1 + util::uniform_index(rng, nearby.size() - 1)];
    }
  }
  std::vector<std::size_t> visited{home};
  std::vector<double> visit_weight{5.0};
  if (work != home) {
    visited.push_back(work);
    visit_weight.push_back(3.0);
  }

  std::size_t current = home;
  double now = 0.0;
  timeline.start_min.push_back(0.0);
  timeline.antenna.push_back(current);

  while (now < horizon) {
    const double stay =
        std::clamp(lognormal(rng, m.stay_logmean, m.stay_logsd), 20.0,
                   16.0 * 60.0);
    now += stay;
    if (now >= horizon) break;

    std::size_t next = current;
    const double minute_of_day = std::fmod(now, kMinutesPerDay);
    if (is_night(minute_of_day) && util::uniform01(rng) < m.night_home_prob) {
      next = home;
    } else {
      const double s = static_cast<double>(visited.size());
      const double p_explore = m.rho * std::pow(s, -m.gamma);
      if (util::uniform01(rng) < p_explore) {
        // Exploration: jump a Pareto-distributed distance and land on an
        // antenna near the ring at that distance.
        const double d = pareto_jump(rng, m);
        const auto candidates =
            network.antennas_near(network.antenna(current), 1.5 * d);
        if (!candidates.empty()) {
          // Prefer candidates in the outer half of the disc (annulus-ish).
          const std::size_t lo = candidates.size() / 2;
          const std::size_t span = candidates.size() - lo;
          next = candidates[lo + util::uniform_index(rng, span)];
        }
      } else {
        // Preferential return: known location, probability ~ visit weight.
        double total = 0.0;
        for (const double w : visit_weight) total += w;
        double u = util::uniform01(rng) * total;
        next = visited.back();
        for (std::size_t i = 0; i < visited.size(); ++i) {
          u -= visit_weight[i];
          if (u <= 0.0) {
            next = visited[i];
            break;
          }
        }
      }
    }

    if (next != current) {
      current = next;
      timeline.start_min.push_back(now);
      timeline.antenna.push_back(current);
    }
    const auto it = std::find(visited.begin(), visited.end(), current);
    if (it == visited.end()) {
      visited.push_back(current);
      visit_weight.push_back(1.0);
    } else {
      visit_weight[static_cast<std::size_t>(it - visited.begin())] += 1.0;
    }
  }
  return timeline;
}

/// Inverse-CDF sampler over the diurnal profile: returns a minute-of-day.
class DiurnalSampler {
 public:
  DiurnalSampler() {
    const auto& profile = diurnal_profile();
    double acc = 0.0;
    for (std::size_t h = 0; h < profile.size(); ++h) {
      acc += profile[h];
      cumulative_[h] = acc;
    }
    for (double& c : cumulative_) c /= acc;
  }

  [[nodiscard]] double sample(util::Xoshiro256& rng) const {
    const double u = util::uniform01(rng);
    std::size_t hour = 0;
    while (hour < 23 && cumulative_[hour] < u) ++hour;
    const double lo = hour == 0 ? 0.0 : cumulative_[hour - 1];
    const double hi = cumulative_[hour];
    const double frac = hi > lo ? (u - lo) / (hi - lo) : 0.5;
    return (static_cast<double>(hour) + frac) * 60.0;
  }

 private:
  std::array<double, 24> cumulative_{};
};

}  // namespace

const std::array<double, 24>& diurnal_profile() noexcept {
  // Relative call intensity per hour of day, shaped after published CDR
  // studies: deep night trough, morning ramp, business plateau, evening
  // peak, late-evening decay.
  static const std::array<double, 24> profile{
      0.20, 0.12, 0.08, 0.06, 0.07, 0.12, 0.30, 0.60,  // 00-07
      0.90, 1.05, 1.10, 1.15, 1.25, 1.15, 1.10, 1.10,  // 08-15
      1.20, 1.35, 1.50, 1.45, 1.25, 0.95, 0.60, 0.35}; // 16-23
  return profile;
}

std::vector<cdr::PlanarEvent> generate_events(const SynthConfig& config) {
  if (config.users == 0) {
    throw std::invalid_argument{"synthetic dataset needs users > 0"};
  }
  if (!(config.days > 0.0)) {
    throw std::invalid_argument{"synthetic dataset needs days > 0"};
  }
  const AntennaNetwork network{config.network};
  const DiurnalSampler diurnal;
  const util::Xoshiro256 root{config.seed};

  std::vector<cdr::PlanarEvent> events;
  events.reserve(config.users *
                 static_cast<std::size_t>(
                     config.activity.median_events_per_day * config.days));

  for (std::size_t u = 0; u < config.users; ++u) {
    util::Xoshiro256 rng = root.fork(u);
    const std::size_t home = network.sample_home(rng);
    const Timeline timeline = build_timeline(rng, network, config, home);

    // Per-user daily rate: lognormal heterogeneity with optional floor,
    // plus a per-user probability of fully silent days.
    const double rate = std::max(
        lognormal(rng, std::log(config.activity.median_events_per_day),
                  config.activity.events_logsd),
        config.activity.min_events_per_day);
    const double inactive_prob =
        util::uniform01(rng) * config.activity.max_inactive_day_prob;

    const auto whole_days = static_cast<std::size_t>(std::ceil(config.days));
    for (std::size_t day = 0; day < whole_days; ++day) {
      if (util::uniform01(rng) < inactive_prob) continue;
      const double day_start = static_cast<double>(day) * kMinutesPerDay;
      const double factor =
          is_weekend(day_start) ? config.activity.weekend_factor : 1.0;
      const std::size_t count = poisson(rng, rate * factor);
      for (std::size_t e = 0; e < count; ++e) {
        const double t = day_start + diurnal.sample(rng);
        if (t >= config.days * kMinutesPerDay) continue;
        const std::size_t antenna = timeline.at(t);
        events.push_back(cdr::PlanarEvent{
            static_cast<cdr::UserId>(u), t, network.antenna(antenna)});
      }
    }
  }

  std::sort(events.begin(), events.end(),
            [](const cdr::PlanarEvent& a, const cdr::PlanarEvent& b) {
              if (a.user != b.user) return a.user < b.user;
              return a.time_min < b.time_min;
            });
  return events;
}

cdr::FingerprintDataset generate_dataset(const SynthConfig& config) {
  const std::vector<cdr::PlanarEvent> events = generate_events(config);
  cdr::BuilderConfig builder;
  builder.grid_cell_m = 100.0;
  builder.time_step_min = 1.0;
  cdr::FingerprintDataset data = cdr::build_fingerprints(events, builder);
  data.set_name(config.name);
  return data;
}

std::vector<cdr::CdrEvent> to_latlon_events(
    const std::vector<cdr::PlanarEvent>& events, const SynthConfig& config) {
  const geo::LambertAzimuthalEqualArea projection{config.region_anchor};
  const double half = config.network.region_size_m / 2.0;
  std::vector<cdr::CdrEvent> out;
  out.reserve(events.size());
  for (const cdr::PlanarEvent& ev : events) {
    const geo::PlanarPoint centred{ev.position.x_m - half,
                                   ev.position.y_m - half};
    out.push_back(
        cdr::CdrEvent{ev.user, ev.time_min, projection.inverse(centred)});
  }
  return out;
}

namespace {

/// Scales network geometry with the requested population so that the
/// *density* statistics of the full-size datasets are preserved on
/// laptop-scale runs: the D4D traces pack ~60-70 users per antenna, which
/// is what makes nearest-neighbour fingerprints spatially co-located and
/// leaves time as the hard dimension (Sec. 5.3).  Keeping the full 550 km
/// region with only hundreds of users would instead isolate every user in
/// space and invert the paper's findings.
void scale_network_to_population(NetworkConfig& network, std::size_t users,
                                 std::size_t ref_users,
                                 std::size_t ref_antennas,
                                 double ref_region_m) {
  const double scale =
      static_cast<double>(users) / static_cast<double>(ref_users);
  const auto antennas = static_cast<std::size_t>(
      std::clamp(static_cast<double>(users) / 40.0, 30.0,
                 static_cast<double>(ref_antennas)));
  network.antennas = antennas;
  network.region_size_m =
      ref_region_m * std::clamp(std::sqrt(scale), 0.22, 1.0);
}

}  // namespace

SynthConfig civ_like(std::size_t users, std::uint64_t seed) {
  SynthConfig config;
  config.name = "civ-like";
  config.users = users;
  config.days = 14.0;
  config.network.cities = 10;
  config.network.urban_fraction = 0.70;
  config.network.city_zipf_exponent = 1.1;
  config.network.seed = seed * 2654435761ULL + 1;
  scale_network_to_population(config.network, users, /*ref_users=*/82'000,
                              /*ref_antennas=*/1'200,
                              /*ref_region_m=*/550'000.0);
  // Tab. 2 implies ~15.4 samples/user/day on d4d-civ (17.7M samples, 82k
  // users, 14 days); lognormal heterogeneity around a median of 14.
  config.activity.median_events_per_day = 14.0;
  config.activity.events_logsd = 0.8;
  config.activity.min_events_per_day = 1.5;  // d4d-civ screening keeps
                                             // users with >= 1 sample/day
  config.activity.max_inactive_day_prob = 0.45;  // raw CDR: silent days
  config.region_anchor = geo::LatLon{6.82, -5.28};  // Yamoussoukro
  config.seed = seed;
  return config;
}

SynthConfig sen_like(std::size_t users, std::uint64_t seed) {
  SynthConfig config;
  config.name = "sen-like";
  config.users = users;
  config.days = 14.0;
  config.network.cities = 12;
  config.network.urban_fraction = 0.75;
  config.network.city_zipf_exponent = 1.2;
  config.network.seed = seed * 0x9e3779b97f4a7c15ULL + 3;
  scale_network_to_population(config.network, users, /*ref_users=*/320'000,
                              /*ref_antennas=*/1'600,
                              /*ref_region_m=*/500'000.0);
  // Tab. 2 implies ~6.6 samples/user/day on d4d-sen (29.7M samples, 320k
  // users, 14 days): lighter per-day activity than civ, but with a high
  // floor (the release only keeps users active > 75% of the period).
  config.activity.median_events_per_day = 7.0;
  config.activity.events_logsd = 0.6;
  config.activity.min_events_per_day = 4.0;
  config.activity.max_inactive_day_prob = 0.2;  // active >75% of period
  config.region_anchor = geo::LatLon{14.69, -17.44};  // Dakar
  config.seed = seed;
  return config;
}

}  // namespace glove::synth
