// Quickstart: the smallest end-to-end GLOVE run, on the Engine API.
//
//   1. synthesize a small CDR dataset (stand-in for an operator trace),
//   2. check that nobody in it is 2-anonymous (the paper's Fig. 3 problem),
//   3. anonymize through glove::Engine (pick a variant with --strategy),
//   4. verify k-anonymity and report the accuracy that survived.
//
// Build & run:  ./build/examples/example_quickstart [--users=N] [--k=K]
//               [--strategy=full|sharded|incremental|w4m-baseline]

#include <iostream>

#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/stats/table.hpp"

int main(int argc, char** argv) {
  using namespace glove;
  const Engine engine;
  util::Flags flags{"quickstart: synthesize -> diagnose -> GLOVE -> verify"};
  api::define_synth_flags(flags, /*default_users=*/120);
  api::define_run_flags(flags, engine);
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  // 1. Synthesize movement micro-data at the paper's original granularity
  //    (100 m grid cells, 1 min timestamps).
  const cdr::FingerprintDataset data = api::synth_dataset_from_flags(flags);
  std::cout << "dataset: " << data.size() << " users, "
            << data.total_samples() << " spatiotemporal samples\n";

  // 2. Diagnose anonymizability: the k-gap of every user (Sec. 4).
  const api::RunConfig config = api::run_config_from_flags(flags);
  const std::vector<double> gaps = core::k_gap_values(data, config.k);
  std::size_t unique_users = 0;
  for (const double g : gaps) {
    if (g > 0.0) ++unique_users;
  }
  std::cout << "uniqueness: " << unique_users << "/" << data.size()
            << " users are NOT yet " << config.k << "-anonymous\n";

  // 3. Anonymize through the Engine (specialized generalization, Alg. 1).
  const RunReport report = api::run_or_exit(engine, data, config);

  // 4. Verify and report.
  if (!core::is_k_anonymous(report.anonymized, config.k)) {
    std::cerr << "ERROR: output is not " << config.k << "-anonymous\n";
    return 1;
  }
  const std::uint64_t uncovered =
      core::count_uncovered_samples(data, report.anonymized);
  const auto summary =
      core::summarize_accuracy(core::measure_accuracy(report.anonymized));
  std::cout << "GLOVE (" << report.config.strategy << "): "
            << report.counters.merges
            << " merges -> " << report.anonymized.size()
            << " groups, every user hidden among " << config.k << "+ others\n"
            << "truthfulness: " << uncovered
            << " original samples left uncovered (must be 0)\n"
            << "accuracy kept: median position "
            << stats::fmt(summary.median_position_m / 1'000.0, 2)
            << " km, median time " << stats::fmt(summary.median_time_min, 1)
            << " min (originals: 0.1 km, 1 min)\n";
  api::maybe_write_report(flags, report, std::cout);
  return uncovered == 0 ? 0 : 1;
}
