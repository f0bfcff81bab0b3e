// Ablation bench — quantifies four design choices of this reproduction:
//
//   1. reshaping (Fig. 6b) on vs off: reshaping trades spatial granularity
//      for a temporally consistent, analyzable dataset;
//   2. leftover policy: merge-into-nearest (no user loss) vs suppress;
//   3. suppression (Sec. 7.1) off vs the paper's 15 km / 6 h setting;
//   4. input-order sensitivity of the greedy pass (dataset shuffled by
//      seed): GLOVE's heap order is content-driven, so accuracy should be
//      stable across input permutations.

#include <algorithm>
#include <iostream>

#include "common/bench_common.hpp"
#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/stats/table.hpp"
#include "glove/util/rng.hpp"

namespace {

using namespace glove;

struct Outcome {
  double pos_mean_km;
  double time_mean_min;
  std::uint64_t deleted;
  std::uint64_t groups;
  double seconds;
};

Outcome run(const Engine& engine, const cdr::FingerprintDataset& data,
            const api::RunConfig& config) {
  const RunReport result = api::run_or_exit(engine, data, config);
  const auto summary =
      core::summarize_accuracy(core::measure_accuracy(result.anonymized));
  return Outcome{summary.mean_position_m / 1'000.0, summary.mean_time_min,
                 result.counters.deleted_samples,
                 result.counters.output_groups,
                 result.timings.init_seconds + result.timings.merge_seconds};
}

void add_row(stats::TextTable& table, const std::string& name,
             const Outcome& o) {
  table.row({name, stats::fmt(o.pos_mean_km, 2) + "km",
             stats::fmt(o.time_mean_min, 1) + "min",
             std::to_string(o.deleted), std::to_string(o.groups),
             stats::fmt(o.seconds, 2) + "s"});
}

}  // namespace

int main() {
  const glove::Engine engine;
  const bench::Scale scale = bench::resolve_scale(/*default_users=*/180);
  const cdr::FingerprintDataset civ = bench::make_civ(scale);
  bench::print_banner("Ablations (GLOVE design choices)", civ);

  stats::TextTable table{"Ablation — GLOVE variants (civ-like, k=2)"};
  table.header({"variant", "pos mean", "time mean", "deleted", "groups",
                "runtime"});

  api::RunConfig base;
  base.k = 2;
  add_row(table, "baseline (reshape on)", run(engine, civ, base));

  api::RunConfig no_reshape = base;
  no_reshape.reshape = false;
  add_row(table, "reshape off", run(engine, civ, no_reshape));

  api::RunConfig suppress_leftover = base;
  suppress_leftover.leftover_policy = core::LeftoverPolicy::kSuppress;
  add_row(table, "leftover: suppress", run(engine, civ, suppress_leftover));

  api::RunConfig with_suppression = base;
  with_suppression.suppression =
      core::SuppressionThresholds{15'000.0, 360.0};
  add_row(table, "suppression 15km/6h", run(engine, civ, with_suppression));

  // Input-order sensitivity: shuffle the dataset and re-run.
  util::Xoshiro256 rng{scale.seed * 7 + 5};
  std::vector<cdr::Fingerprint> shuffled{civ.fingerprints().begin(),
                                         civ.fingerprints().end()};
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1],
              shuffled[util::uniform_index(rng, i)]);
  }
  const cdr::FingerprintDataset permuted{std::move(shuffled), "civ-shuffled"};
  add_row(table, "input order shuffled", run(engine, permuted, base));

  // Sharded (the scaling path): smaller shards trade accuracy for a
  // quadratic-cost reduction.  Adaptive tiles, as the CLI's default.
  for (const std::size_t users : {90u, 45u}) {
    api::RunConfig sharded = base;
    sharded.strategy = api::kStrategySharded;
    sharded.sharded.tile_size_m = 0.0;
    sharded.sharded.max_shard_users = users;
    add_row(table, "sharded (" + std::to_string(users) + "/shard)",
            run(engine, civ, sharded));
  }

  table.print(std::cout);

  std::cout << "\n  Expectations: reshape-off keeps finer mean granularity "
               "(no overlap unions) but leaves temporally overlapping, "
               "hard-to-analyze samples; suppression cuts the mean errors "
               "sharply at a bounded deletion cost; shuffling the input "
               "changes results only marginally (the greedy order is "
               "content-driven).\n";
  return 0;
}
