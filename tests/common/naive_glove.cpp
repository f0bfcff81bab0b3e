#include "common/naive_glove.hpp"

#include <cstddef>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "glove/core/merge.hpp"
#include "glove/core/stretch.hpp"

namespace glove::test {

cdr::FingerprintDataset naive_glove(const cdr::FingerprintDataset& data,
                                    const core::GloveConfig& config) {
  const std::size_t inputs = data.size();
  std::vector<cdr::Fingerprint> nodes{data.fingerprints().begin(),
                                      data.fingerprints().end()};
  std::vector<bool> alive(nodes.size(), true);
  std::vector<std::size_t> finished;
  const auto is_open = [&](std::size_t id) {
    return alive[id] && nodes[id].group_size() < config.k;
  };
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!is_open(id)) finished.push_back(id);
  }

  for (;;) {
    std::tuple<double, std::size_t, std::size_t> best{
        std::numeric_limits<double>::infinity(), 0, 0};
    bool found = false;
    for (std::size_t x = 0; x < nodes.size(); ++x) {
      for (std::size_t y = x + 1; y < nodes.size(); ++y) {
        if (!is_open(x) || !is_open(y)) continue;
        const std::size_t a = y < inputs ? x : y;
        const std::size_t b = y < inputs ? y : x;
        const std::tuple<double, std::size_t, std::size_t> candidate{
            core::fingerprint_stretch(nodes[a], nodes[b], config.limits), a,
            b};
        if (!found || candidate < best) best = candidate;
        found = true;
      }
    }
    if (!found) break;
    const auto [stretch, a, b] = best;
    alive[a] = false;
    alive[b] = false;
    nodes.push_back(core::merge_fingerprints(nodes[a], nodes[b], config));
    alive.push_back(true);
    if (!is_open(nodes.size() - 1)) finished.push_back(nodes.size() - 1);
  }

  std::vector<cdr::Fingerprint> output;
  for (const std::size_t id : finished) output.push_back(nodes[id]);
  for (std::size_t id = 0; id < nodes.size(); ++id) {
    if (!is_open(id) ||
        config.leftover_policy == core::LeftoverPolicy::kSuppress) {
      continue;
    }
    std::size_t nearest = 0;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t g = 0; g < output.size(); ++g) {
      const double d =
          core::fingerprint_stretch(nodes[id], output[g], config.limits);
      if (d < best) {
        best = d;
        nearest = g;
      }
    }
    output[nearest] =
        core::merge_fingerprints(nodes[id], output[nearest], config);
  }
  return cdr::FingerprintDataset{std::move(output),
                                 data.name() + "-k" + std::to_string(config.k)};
}

}  // namespace glove::test
