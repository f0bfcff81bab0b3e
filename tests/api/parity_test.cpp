// Engine/free-function parity: every built-in strategy must produce
// byte-identical anonymized output to the pre-Engine free function it
// wraps, on the shared fixture datasets (including the checked-in golden
// pairing dataset).  This locks the redesign to "API change only".

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/naive_glove.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/cdr/io.hpp"
#include "glove/baseline/w4m.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/incremental.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/util/rng.hpp"

namespace glove::api {
namespace {

std::string engine_csv(const Engine& engine,
                       const cdr::FingerprintDataset& data,
                       const RunConfig& config) {
  const auto result = engine.run(data, config);
  EXPECT_TRUE(result.ok()) << config.strategy << ": "
                           << (result.ok() ? "" : result.error().message);
  return test::dataset_to_csv(result.value().anonymized);
}

class ParityTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ParityTest, FullMatchesFreeFunction) {
  const Engine engine;
  const std::uint32_t k = GetParam();
  for (const auto& data :
       {test::paired_dataset(), test::small_synth_dataset(30)}) {
    RunConfig config;
    config.k = k;
    core::GloveConfig legacy;
    legacy.k = k;
    EXPECT_EQ(engine_csv(engine, data, config),
              test::dataset_to_csv(core::anonymize(data, legacy).anonymized));
  }
}

/// Appends one tie-heavy cluster at (x, t): `whole` copies of a two-sample
/// fingerprint, `split` copies of each of its samples alone, and `doubled`
/// pairs of a doubled and a single sample 5 km east and 10 h later.  User
/// ids follow the dataset's size.
void add_tie_cluster(std::vector<cdr::Fingerprint>& fps, double x, double t,
                     std::size_t whole, std::size_t split,
                     std::size_t doubled) {
  using test::cell;
  const auto add = [&](std::vector<cdr::Sample> samples) {
    fps.emplace_back(static_cast<cdr::UserId>(fps.size()), std::move(samples));
  };
  for (std::size_t copy = 0; copy < whole; ++copy) {
    add({cell(x, 0, t), cell(x + 100, 0, t + 300)});
  }
  for (std::size_t copy = 0; copy < split; ++copy) {
    add({cell(x, 0, t)});
    add({cell(x + 100, 0, t + 300)});
  }
  for (std::size_t copy = 0; copy < doubled; ++copy) {
    add({cell(x + 5'000, 0, t + 600), cell(x + 5'000, 0, t + 600)});
    add({cell(x + 5'000, 0, t + 600)});
  }
}

/// Ties everywhere: copies of identical fingerprints and co-located ones
/// (same places and times, different sample counts), so many candidate
/// pairs share a stretch and the (a, b) tie-break picks the merges.
cdr::FingerprintDataset tie_heavy_dataset() {
  std::vector<cdr::Fingerprint> fps;
  add_tie_cluster(fps, 0, 0, 4, 3, 4);
  fps.emplace_back(static_cast<cdr::UserId>(fps.size()),
                   std::vector<cdr::Sample>{test::cell(40'000, 0, 2'000)});
  return cdr::FingerprintDataset{std::move(fps), "ties"};
}

/// The tie_heavy_dataset shape at `clusters` lattice sites 10 km and 20 h
/// apart (so whole clusters tie with each other too), with 1-4 seeded
/// copies of each kind per cluster.
cdr::FingerprintDataset tie_heavy_dataset(std::size_t clusters,
                                          std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  const auto copies = [&] { return 1 + util::uniform_index(rng, 4); };
  std::vector<cdr::Fingerprint> fps;
  for (std::size_t c = 0; c < clusters; ++c) {
    const double x = 10'000.0 * static_cast<double>(c % 2);
    const double t = 1'200.0 * static_cast<double>(c / 2);
    const std::size_t whole = copies();
    const std::size_t split = copies();
    add_tie_cluster(fps, x, t, whole, split, copies());
  }
  return cdr::FingerprintDataset{std::move(fps), "ties"};
}

/// Commuters between two shared sites over `days` days: each user leaves
/// a home cell near (0, 0) at a seeded hour, reaches a work cell near
/// (6 km, 0) one to three hours later and is home again nine hours after
/// leaving, each visit a few minutes off its hour.  Every bounding box
/// spans both sites and every interval spans the days, so every box bound
/// is 0, but users who keep different hours are far apart slot by slot.
cdr::FingerprintDataset commuter_dataset(std::size_t users, std::size_t days,
                                         std::uint64_t seed) {
  util::Xoshiro256 rng{seed};
  const auto draw = [&](std::uint64_t from, std::uint64_t count) {
    return static_cast<double>(from + util::uniform_index(rng, count));
  };
  std::vector<cdr::Fingerprint> fps;
  for (std::size_t user = 0; user < users; ++user) {
    const double leave = 60.0 * draw(5, 8);
    const double commute = 60.0 * draw(1, 3);
    std::vector<cdr::Sample> trace;
    for (std::size_t day = 0; day < days; ++day) {
      const double start = 1'440.0 * static_cast<double>(day) + leave;
      // One draw per statement, so the data does not depend on the
      // compiler's order of evaluating arguments.
      const auto visit = [&](double site, double after) {
        const double x = site + 100.0 * draw(0, 3);
        const double y = 100.0 * draw(0, 3);
        const double t = start + after + draw(0, 20);
        trace.push_back(test::cell(x, y, t));
      };
      visit(0.0, 0.0);
      visit(6'000.0, commute);
      visit(0.0, 540.0);
    }
    fps.emplace_back(static_cast<cdr::UserId>(user), std::move(trace));
  }
  return cdr::FingerprintDataset{std::move(fps), "commuters"};
}

/// How far `name` moved since `before`.
std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const char* name) {
  return obs::snapshot_metrics().counter_value(name) -
         before.counter_value(name);
}

TEST_P(ParityTest, FullMatchesNaiveGreedyReference) {
  // The lazy node heap is *exact*: seeding each node's key with a lower
  // bound and rescanning it on pop must reproduce exhaustive Alg. 1 with
  // all-exact stretches byte for byte.  The heap rescans the keys at its
  // top in batches that it pushes back, and a key whose partner merged
  // away stays in place as a bound; neither may change the pop order, and
  // so the output.  Ties are where a shortcut would show (a batch's least
  // exact key can tie with, or lose the (a, b) tie-break to, a key the
  // batch did not hold), hence the seeded sweep of tie-heavy inputs.
  const Engine engine;
  const std::uint32_t k = GetParam();
  RunConfig config;
  config.k = k;
  core::GloveConfig reference;
  reference.k = k;
  const auto expected = [&](const cdr::FingerprintDataset& data) {
    return test::dataset_to_csv(test::naive_glove(data, reference));
  };
  std::vector<cdr::FingerprintDataset> inputs{
      test::paired_dataset(), test::small_synth_dataset(40),
      test::random_dataset(25, 7), tie_heavy_dataset()};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    inputs.push_back(tie_heavy_dataset(1 + seed % 6, seed));
  }
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(engine_csv(engine, inputs[i], config), expected(inputs[i]))
        << "input " << i;
  }

  // Every box bound of the dense input is 0, so every node's key starts
  // at 0 and the first rescan batches grow to 32 keys.  Its fingerprints
  // keep 48 samples, one every four hours, through every merge (a merge
  // never has more samples than its shorter side, so 48-sample groups
  // prove it), and a batch's work is its owners' candidates times their
  // samples: the batch of nodes 32-59 counts 28 * 45.5 * 48 = 61,152,
  // past the 32,768 below which a batch is rescanned inline, so it runs
  // on the thread pool.
  const cdr::FingerprintDataset dense = test::dense_dataset(60, 48, 3);
  const cdr::FingerprintDataset dense_groups =
      test::naive_glove(dense, reference);
  for (const cdr::Fingerprint& group : dense_groups.fingerprints()) {
    ASSERT_EQ(group.size(), 48u);
  }
  const obs::MetricsSnapshot dense_before = obs::snapshot_metrics();
  EXPECT_EQ(engine_csv(engine, dense, config),
            test::dataset_to_csv(dense_groups));
  EXPECT_GT(counter_delta(dense_before, "core.heap.pool_batches"), 0u);
}

TEST_P(ParityTest, FullMatchesNaiveGreedyReferenceWhereTheSlotBoundDecides) {
  // The box bound is 0 for every commuter pair, so every candidate that
  // reaches the top moves on to the slot stage, and the slot bound alone
  // decides which pairs are refined exactly.  A slot bound is no stretch:
  // merging on it, or letting it pop after an exact entry of equal value,
  // would change the groups.
  const Engine engine;
  const std::uint32_t k = GetParam();
  RunConfig config;
  config.k = k;
  core::GloveConfig reference;
  reference.k = k;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const cdr::FingerprintDataset data = commuter_dataset(40, 3, seed);
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    EXPECT_EQ(engine_csv(engine, data, config),
              test::dataset_to_csv(test::naive_glove(data, reference)))
        << "seed " << seed;
    EXPECT_GT(counter_delta(before, "core.heap.slot_bounds"),
              counter_delta(before, "core.heap.refined"))
        << "seed " << seed;
  }
}

TEST_P(ParityTest, FullMatchesNaiveGreedyReferenceUnderSuppression) {
  // Tight suppression thresholds empty some merged groups entirely.  An
  // emptied group has stretch 0 to everything, so its bound must be 0 too,
  // or the node heap and the nearest-group search would pass it over.
  const Engine engine;
  const std::uint32_t k = GetParam();
  std::size_t emptied = 0;
  for (const auto& data :
       {test::small_synth_dataset(40), test::small_synth_dataset(30, 3.0, 9)}) {
    RunConfig config;
    config.k = k;
    config.suppression = core::SuppressionThresholds{2'000.0, 30.0};
    core::GloveConfig reference;
    reference.k = k;
    reference.suppression = config.suppression;
    const cdr::FingerprintDataset expected = test::naive_glove(data, reference);
    for (const cdr::Fingerprint& fp : expected.fingerprints()) {
      if (fp.empty()) ++emptied;
    }
    EXPECT_EQ(engine_csv(engine, data, config), test::dataset_to_csv(expected));
  }
  EXPECT_GT(emptied, 0u);
}

TEST_P(ParityTest, W4MMatchesFreeFunction) {
  const Engine engine;
  const std::uint32_t k = GetParam();
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  RunConfig config;
  config.strategy = kStrategyW4M;
  config.k = k;
  EXPECT_EQ(engine_csv(engine, data, config),
            test::dataset_to_csv(baseline::anonymize_w4m(data, k).anonymized));
}

TEST_P(ParityTest, IncrementalMatchesFreeFunction) {
  const Engine engine;
  const std::uint32_t k = GetParam();
  core::GloveConfig legacy;
  legacy.k = k;
  const core::GloveResult published =
      core::anonymize(test::small_synth_dataset(24), legacy);
  // Newcomer ids offset past the base release's: anonymize_update rejects
  // ids that appear in both inputs.
  const cdr::FingerprintDataset newcomers =
      test::random_dataset(8, 3, 6, /*first_user=*/10'000);

  RunConfig config;
  config.strategy = kStrategyIncremental;
  config.k = k;
  config.incremental.published = &published.anonymized;
  EXPECT_EQ(engine_csv(engine, newcomers, config),
            test::dataset_to_csv(
                core::anonymize_update(published.anonymized, newcomers, legacy)
                    .anonymized));
}

// k = 5 merges nodes that stay open, so fresh pairs enter the heap.
INSTANTIATE_TEST_SUITE_P(KLevels, ParityTest, ::testing::Values(2u, 3u, 5u));

TEST(Parity, StreamingBoundaryMatchesLegacyOverloadForEveryStrategy) {
  // File-to-file runs must publish byte-identical datasets to the legacy
  // dataset overload fed the same parsed input — for the sharded strategy
  // that locks the whole two-pass streaming pipeline to the in-memory
  // one, for the rest the collect-then-run fallback.
  const Engine engine;
  const test::TempDir dir;
  const std::string in_path = dir.file("in.csv");
  cdr::write_dataset_file(in_path, test::small_synth_dataset(50));
  const cdr::FingerprintDataset parsed = test::read_dataset(in_path);

  for (const char* strategy : {"full", "sharded", "w4m-baseline"}) {
    RunConfig config;
    config.strategy = strategy;
    config.k = 2;
    config.sharded.tile_size_m = 5'000.0;
    config.sharded.max_shard_users = 16;

    const auto legacy = engine.run(parsed, config);
    ASSERT_TRUE(legacy.ok()) << strategy << ": " << legacy.error().message;

    const std::string out_path =
        dir.file(std::string{"out-"} + strategy + ".csv");
    CsvFileSource source{in_path};
    CsvFileSink sink{out_path};
    const auto streamed = engine.run(source, sink, config);
    ASSERT_TRUE(streamed.ok()) << strategy << ": "
                               << streamed.error().message;

    std::ifstream published{out_path};
    std::stringstream bytes;
    bytes << published.rdbuf();
    EXPECT_EQ(bytes.str(), test::dataset_to_csv(legacy.value().anonymized))
        << strategy;
  }
}

TEST(Parity, FullMatchesOnCheckedInGoldenDataset) {
  // The checked-in golden file locks core::anonymize's output on the
  // paired dataset at k=2; the Engine's "full" strategy must match the
  // same bytes.
  const Engine engine;
  RunConfig config;
  config.k = 2;
  const auto result = engine.run(test::paired_dataset(), config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  test::expect_matches_golden("glove_paired_k2.csv",
                              test::dataset_to_csv(result.value().anonymized));
}

}  // namespace
}  // namespace glove::api
