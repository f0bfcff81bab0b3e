// Kernel throughput microbenchmarks (google-benchmark), cf. Sec. 6.3: the
// paper's proof-of-concept CUDA build evaluated eq. 10 on 20-50k
// fingerprint pairs per second on a low-end GPU.  These benches report the
// CPU figures of this implementation for the same kernels.

#include <benchmark/benchmark.h>

#include <vector>

#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/core/merge.hpp"
#include "glove/core/stretch.hpp"
#include "glove/synth/generator.hpp"
#include "glove/util/rng.hpp"

namespace {

using namespace glove;

cdr::Fingerprint random_fingerprint(util::Xoshiro256& rng, cdr::UserId id,
                                    std::size_t samples) {
  std::vector<cdr::Sample> list;
  list.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    cdr::Sample s;
    s.sigma = cdr::SpatialExtent{util::uniform(rng, 0.0, 100'000.0), 100.0,
                                 util::uniform(rng, 0.0, 100'000.0), 100.0};
    s.tau = cdr::TemporalExtent{util::uniform(rng, 0.0, 20'160.0), 1.0};
    list.push_back(s);
  }
  return cdr::Fingerprint{id, std::move(list)};
}

void BM_SampleStretch(benchmark::State& state) {
  util::Xoshiro256 rng{1};
  const cdr::Fingerprint a = random_fingerprint(rng, 0, 2);
  const cdr::Fingerprint b = random_fingerprint(rng, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::sample_stretch(a.samples()[0], 1, b.samples()[1], 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampleStretch);

/// The paper's headline kernel: eq. 10 on a fingerprint pair.  items/s is
/// directly comparable with the 20-50k pairs/s of Sec. 6.3 (length ~ the
/// benchmarked arg).
void BM_FingerprintStretchPair(benchmark::State& state) {
  util::Xoshiro256 rng{2};
  const auto length = static_cast<std::size_t>(state.range(0));
  const cdr::Fingerprint a = random_fingerprint(rng, 0, length);
  const cdr::Fingerprint b = random_fingerprint(rng, 1, length + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fingerprint_stretch(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FingerprintStretchPair)->Arg(25)->Arg(50)->Arg(100)->Arg(200);

/// eq. 10 on the kind of pair the greedy loop's refinements see: the
/// longest fingerprint of a small civ-like population and its nearest
/// neighbour by stretch.  Their samples mostly match within minutes, so the
/// kernel's time window skips most sample pairs — unlike the uniform pairs
/// above, which stay as the overhead tripwire.
void BM_FingerprintStretchNearPair(benchmark::State& state) {
  synth::SynthConfig config = synth::civ_like(200, 7);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  std::size_t longest = 0;
  for (std::size_t i = 1; i < data.size(); ++i) {
    if (data[i].size() > data[longest].size()) longest = i;
  }
  std::size_t nearest = longest == 0 ? 1 : 0;
  double best = core::fingerprint_stretch(data[longest], data[nearest]);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i == longest) continue;
    const double d = core::fingerprint_stretch(data[longest], data[i]);
    if (d < best) {
      best = d;
      nearest = i;
    }
  }
  const cdr::Fingerprint& a = data[longest];
  const cdr::Fingerprint& b = data[nearest];
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fingerprint_stretch(a, b));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["samples_a"] = static_cast<double>(a.size());
  state.counters["samples_b"] = static_cast<double>(b.size());
}
BENCHMARK(BM_FingerprintStretchNearPair);

void BM_MergeFingerprints(benchmark::State& state) {
  util::Xoshiro256 rng{3};
  const auto length = static_cast<std::size_t>(state.range(0));
  const cdr::Fingerprint a = random_fingerprint(rng, 0, length);
  const cdr::Fingerprint b = random_fingerprint(rng, 1, length);
  const core::MergeOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::merge_fingerprints(a, b, options));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeFingerprints)->Arg(25)->Arg(100);

// The two dataset-level kernels below fan work out to the shared thread
// pool, so they are timed in wall-clock time: the default main-thread CPU
// time would not see the work done on pool threads.
void BM_KGapSmallDataset(benchmark::State& state) {
  synth::SynthConfig config = synth::civ_like(
      static_cast<std::size_t>(state.range(0)), 7);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::k_gap_values(data, 2));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()) *
                          static_cast<std::int64_t>(data.size() - 1) / 2);
}
BENCHMARK(BM_KGapSmallDataset)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GloveEndToEnd(benchmark::State& state) {
  synth::SynthConfig config = synth::civ_like(
      static_cast<std::size_t>(state.range(0)), 11);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  core::GloveConfig glove_config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::anonymize(data, glove_config));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_GloveEndToEnd)
    ->Arg(60)
    ->Arg(120)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
