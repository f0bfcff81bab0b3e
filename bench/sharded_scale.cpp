// Sharded-vs-single-matrix scaling harness (ROADMAP "Sharded k-gap /
// merge"): runs the same population through --strategy=full and sharded,
// printing wall-clocks, speedups, decomposition counters and the per-shard
// timing table from the run report.
//
//   GLOVE_USERS=5000 GLOVE_THREADS=8 ./build/bench/bench_sharded_scale
//
// On multi-core machines the sharded wall-clock gain compounds an
// algorithmic gain (tiled quadratic cost) with shard-level parallelism;
// the accuracy columns quantify what the tiling costs in return.

#include <chrono>
#include <iostream>

#include "common/bench_common.hpp"
#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/stats/table.hpp"

namespace {

using namespace glove;

struct Measured {
  RunReport report;
  double seconds = 0.0;
};

Measured run(const Engine& engine, const cdr::FingerprintDataset& data,
             const std::string& strategy) {
  api::RunConfig config;
  config.strategy = strategy;
  config.k = 2;
  const auto start = std::chrono::steady_clock::now();
  Measured measured{api::run_or_exit(engine, data, config), 0.0};
  measured.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  if (!core::is_k_anonymous(measured.report.anonymized, config.k)) {
    std::cerr << "ERROR: " << strategy << " output is not k-anonymous\n";
    std::exit(1);
  }
  return measured;
}

}  // namespace

int main() {
  const Engine engine;
  const bench::Scale scale = bench::resolve_scale(/*default_users=*/1'500,
                                                  /*default_days=*/3.0);
  const cdr::FingerprintDataset data = bench::make_civ(scale);
  bench::print_banner("sharded scaling (full vs sharded, k=2)", data);

  stats::TextTable table{"Wall-clock and accuracy by strategy"};
  table.header({"strategy", "seconds", "speedup", "groups", "pos median",
                "time median"});
  double baseline = 0.0;
  Measured sharded_run{};
  for (const std::string strategy : {"full", "sharded"}) {
    const Measured m = run(engine, data, strategy);
    if (baseline == 0.0) baseline = m.seconds;
    if (strategy == "sharded") sharded_run = m;
    const auto summary =
        core::summarize_accuracy(core::measure_accuracy(m.report.anonymized));
    table.row({strategy, stats::fmt(m.seconds, 2),
               stats::fmt(baseline / m.seconds, 1) + "x",
               std::to_string(m.report.counters.output_groups),
               stats::fmt(summary.median_position_m / 1'000.0, 2) + "km",
               stats::fmt(summary.median_time_min, 1) + "min"});
  }
  table.print(std::cout);

  const RunReport& report = sharded_run.report;
  std::cout << "\n  sharded decomposition: "
            << api::find_metric(report, "tiles") << " tiles -> "
            << api::find_metric(report, "shards") << " shards, "
            << api::find_metric(report, "deferred_fingerprints")
            << " deferred to reconciliation ("
            << api::find_metric(report, "reconciled_groups")
            << " reconciled groups, "
            << api::find_metric(report, "absorbed_leftovers")
            << " absorbed)\n";

  stats::TextTable shards{"Per-shard timings (run report 'shards' rows)"};
  shards.header({"shard", "kept", "deferred", "groups", "init s", "merge s",
                 "total s"});
  for (const shard::ShardTiming& row : report.shard_timings) {
    shards.row({std::to_string(row.shard),
                std::to_string(row.input_fingerprints),
                std::to_string(row.deferred),
                std::to_string(row.output_groups),
                stats::fmt(row.init_seconds, 3),
                stats::fmt(row.merge_seconds, 3),
                stats::fmt(row.total_seconds, 3)});
  }
  shards.print(std::cout);
  return 0;
}
