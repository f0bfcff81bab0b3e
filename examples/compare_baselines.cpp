// compare_baselines: GLOVE vs W4M-LC vs uniform generalization on one
// citywide scenario — the Sec. 7.2 comparison as a runnable example.
// Both anonymizers run through the same glove::Engine entry point; only
// the strategy name differs.
//
//   ./build/examples/example_compare_baselines [--users=150] [--k=2]

#include <iostream>

#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/generalize.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/kgap.hpp"
#include "glove/stats/table.hpp"

int main(int argc, char** argv) {
  using namespace glove;
  const Engine engine;
  util::Flags flags{"compare_baselines: GLOVE vs W4M-LC vs generalization"};
  api::define_synth_flags(flags, /*default_users=*/150, /*default_days=*/7.0,
                          /*default_seed=*/31, /*default_preset=*/"sen");
  api::define_run_flags(flags, engine);
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  const cdr::FingerprintDataset data = api::synth_dataset_from_flags(flags);
  api::RunConfig config = api::run_config_from_flags(flags);
  const std::uint32_t k = config.k;
  std::cout << "dataset: " << data.size() << " users, "
            << data.total_samples() << " samples; target k=" << k << "\n";

  stats::TextTable table{"GLOVE vs W4M-LC vs uniform generalization"};
  table.header({"approach", "k-anonymous?", "created", "deleted",
                "pos accuracy (median)", "time accuracy (median)",
                "truthful (P2)?"});

  // --- Uniform generalization at a severe 5 km / 2 h level (Fig. 4).
  {
    const auto coarse = core::generalize_dataset(data, {5'000.0, 120.0});
    const auto gaps = core::k_gap_values(coarse, k);
    std::size_t anonymous = 0;
    for (const double g : gaps) {
      if (g == 0.0) ++anonymous;
    }
    const auto summary =
        core::summarize_accuracy(core::measure_accuracy(coarse));
    table.row({"uniform 5km/2h",
               stats::fmt_pct(static_cast<double>(anonymous) /
                              static_cast<double>(gaps.size())) +
                   " of users",
               "0", "0",
               stats::fmt(summary.median_position_m / 1'000.0, 2) + "km",
               stats::fmt(summary.median_time_min, 1) + "min", "yes"});
  }

  // --- W4M-LC (delta = 2 km, 10% trash) through the Engine.
  {
    api::RunConfig w4m_config = config;
    w4m_config.strategy = api::kStrategyW4M;
    const RunReport w4m = api::run_or_exit(engine, data, w4m_config);
    const double mean_pos_error_m =
        api::find_metric(w4m, "mean_position_error_m");
    const double mean_time_error_min =
        api::find_metric(w4m, "mean_time_error_min");
    table.row({"W4M-LC",
               "(k," + stats::fmt(w4m.config.w4m.delta_m, 0) + "m)-anonymity",
               std::to_string(w4m.counters.created_samples),
               std::to_string(w4m.counters.deleted_samples),
               stats::fmt(mean_pos_error_m / 1'000.0, 2) + "km (mean err)",
               stats::fmt(mean_time_error_min, 1) + "min (mean err)",
               "NO (fabricates samples)"});
  }

  // --- GLOVE through the Engine (flag-selected variant, default "full").
  const RunReport glove = api::run_or_exit(engine, data, config);
  {
    const bool ok = core::is_k_anonymous(glove.anonymized, k);
    const std::uint64_t uncovered =
        core::count_uncovered_samples(data, glove.anonymized);
    const auto summary =
        core::summarize_accuracy(core::measure_accuracy(glove.anonymized));
    table.row({"GLOVE (" + glove.config.strategy + ")",
               ok ? "100% of users" : "FAILED", "0",
               std::to_string(glove.counters.deleted_samples),
               stats::fmt(summary.median_position_m / 1'000.0, 2) + "km",
               stats::fmt(summary.median_time_min, 1) + "min",
               uncovered == 0 ? "yes" : "NO"});
  }

  table.print(std::cout);
  api::maybe_write_report(flags, glove, std::cout);
  std::cout << "\nreading: uniform generalization destroys granularity and "
               "still fails k-anonymity;\nW4M-LC reaches its (k,delta) "
               "criterion only by fabricating samples and displacing\nusers "
               "in space and time; GLOVE anonymizes everyone, truthfully, "
               "at modest cost.\n";
  return 0;
}
