#include "common/fixtures.hpp"

#include <utility>
#include <vector>

#include "glove/synth/generator.hpp"
#include "glove/util/rng.hpp"

namespace glove::test {

cdr::Sample cell(double x, double y, double t) {
  return box(x, 100.0, y, 100.0, t, 1.0);
}

cdr::Sample box(double x, double dx, double y, double dy, double t,
                double dt) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, dx, y, dy};
  s.tau = cdr::TemporalExtent{t, dt};
  return s;
}

cdr::Fingerprint group_fingerprint(std::uint32_t size, cdr::UserId first,
                                   std::vector<cdr::Sample> samples) {
  std::vector<cdr::UserId> members(size);
  for (std::uint32_t i = 0; i < size; ++i) members[i] = first + i;
  return cdr::Fingerprint{std::move(members), std::move(samples)};
}

cdr::Fingerprint scaled(const cdr::Fingerprint& fp, double space,
                        double time) {
  std::vector<cdr::Sample> samples(fp.samples().begin(), fp.samples().end());
  for (cdr::Sample& s : samples) {
    s.sigma = cdr::SpatialExtent{s.sigma.x * space, s.sigma.dx * space,
                                 s.sigma.y * space, s.sigma.dy * space};
    s.tau = cdr::TemporalExtent{s.tau.t * time, s.tau.dt * time};
  }
  return cdr::Fingerprint{
      std::vector<cdr::UserId>(fp.members().begin(), fp.members().end()),
      std::move(samples)};
}

cdr::FingerprintDataset paired_dataset() {
  std::vector<cdr::Fingerprint> fps;
  const auto add_pair = [&](cdr::UserId base, double ox, double ot) {
    fps.emplace_back(base,
                     std::vector<cdr::Sample>{cell(ox, 0, ot),
                                              cell(ox + 100, 0, ot + 300)});
    fps.emplace_back(base + 1,
                     std::vector<cdr::Sample>{cell(ox, 100, ot + 4),
                                              cell(ox + 200, 0, ot + 310)});
  };
  add_pair(0, 0.0, 0.0);
  add_pair(2, 5'000.0, 600.0);
  add_pair(4, 10'000.0, 1'200.0);
  fps.emplace_back(6u, std::vector<cdr::Sample>{cell(200'000, 200'000, 50)});
  return cdr::FingerprintDataset{std::move(fps), "paired"};
}

cdr::FingerprintDataset grouped_io_dataset() {
  const cdr::Sample s1 = box(100.0, 100.0, 200.0, 100.0, 10.0, 1.0);
  cdr::Sample s2 = box(0.0, 500.0, 0.0, 300.0, 50.0, 30.0);
  s2.contributors = 4;

  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(std::vector<cdr::UserId>{1u, 2u},
                   std::vector<cdr::Sample>{s1, s2});
  fps.emplace_back(7u, std::vector<cdr::Sample>{s1});
  return cdr::FingerprintDataset{std::move(fps), "io-test"};
}

cdr::FingerprintDataset random_dataset(std::size_t users, std::uint64_t seed,
                                       std::size_t max_samples_per_user,
                                       cdr::UserId first_user) {
  util::Xoshiro256 rng{seed};
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < users; ++u) {
    std::vector<cdr::Sample> samples;
    const std::size_t n = 1 + util::uniform_index(rng, max_samples_per_user);
    for (std::size_t i = 0; i < n; ++i) {
      cdr::Sample s;
      s.sigma = cdr::SpatialExtent{util::uniform(rng, -1e5, 1e5),
                                   util::uniform(rng, 1.0, 5e4),
                                   util::uniform(rng, -1e5, 1e5),
                                   util::uniform(rng, 1.0, 5e4)};
      s.tau = cdr::TemporalExtent{util::uniform(rng, 0.0, 2e4),
                                  util::uniform(rng, 1.0, 500.0)};
      s.contributors =
          1 + static_cast<std::uint32_t>(util::uniform_index(rng, 9));
      samples.push_back(s);
    }
    fps.emplace_back(first_user + u, std::move(samples));
  }
  return cdr::FingerprintDataset{std::move(fps), "random"};
}

core::GloveConfig glove_config(std::uint32_t k) {
  core::GloveConfig config;
  config.k = k;
  return config;
}

cdr::FingerprintDataset small_synth_dataset(std::size_t users, double days,
                                            std::uint64_t seed) {
  synth::SynthConfig config = synth::civ_like(users, seed);
  config.days = days;
  return synth::generate_dataset(config);
}

cdr::FingerprintDataset dense_dataset(std::size_t users, std::size_t samples,
                                      std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  const auto draw = [&](std::uint64_t n) {
    return static_cast<double>(util::uniform_index(rng, n));
  };
  std::vector<cdr::Fingerprint> fps;
  for (std::size_t user = 0; user < users; ++user) {
    std::vector<cdr::Sample> trace;
    for (std::size_t i = 0; i < samples; ++i) {
      const double x = 100.0 * draw(10);
      const double y = 100.0 * draw(10);
      const double t = 240.0 * static_cast<double>(i) + draw(30);
      trace.push_back(cell(x, y, t));
    }
    fps.emplace_back(static_cast<cdr::UserId>(user), std::move(trace));
  }
  return cdr::FingerprintDataset{std::move(fps), "dense"};
}

}  // namespace glove::test
