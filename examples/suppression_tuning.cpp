// suppression_tuning: explore the Sec. 7.1 accuracy/completeness trade-off
// to pick suppression thresholds for a concrete dataset — the knob a data
// owner turns before publishing.  Every sweep point is one Engine run with
// a different suppression section.
//
//   ./build/examples/example_suppression_tuning [--users=120] [--k=2]

#include <iostream>
#include <limits>

#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/stats/table.hpp"

int main(int argc, char** argv) {
  using namespace glove;
  const Engine engine;
  util::Flags flags{"suppression_tuning: sweep GLOVE suppression thresholds"};
  api::define_synth_flags(flags, /*default_users=*/120, /*default_days=*/7.0,
                          /*default_seed=*/17);
  // The sweep owns the suppression knobs, so only k and the strategy are
  // configurable — a --suppress-* flag would be silently overwritten.
  // Only the GLOVE-family strategies read config.suppression; sweeping
  // w4m-baseline or incremental would print seven identical rows.
  flags.define("k", "2", "anonymity level (every group hides >= k users)");
  flags.define_enum("strategy", std::string{api::kStrategyFull},
                    {std::string{api::kStrategyFull},
                     std::string{api::kStrategySharded}},
                    "suppression-aware anonymization strategy to sweep");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  const cdr::FingerprintDataset data = api::synth_dataset_from_flags(flags);
  api::RunConfig config;
  config.strategy = flags.get("strategy");
  config.k = flags.get_int<std::uint32_t>("k");

  stats::TextTable table{"Suppression threshold sweep (k=" +
                         std::to_string(config.k) + ", " + data.name() + ")"};
  table.header({"spatial", "temporal", "discarded", "pos mean", "pos median",
                "time mean", "time median"});

  struct Setting {
    std::string space_label;
    std::string time_label;
    double space_m;
    double time_min;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<Setting> settings{
      {"off", "off", kInf, kInf},      {"40km", "8h", 40'000.0, 480.0},
      {"20km", "6h", 20'000.0, 360.0}, {"15km", "6h", 15'000.0, 360.0},
      {"10km", "4h", 10'000.0, 240.0}, {"5km", "2h", 5'000.0, 120.0},
      {"2km", "1h", 2'000.0, 60.0},
  };

  for (const Setting& setting : settings) {
    config.suppression.reset();
    if (setting.space_m != kInf || setting.time_min != kInf) {
      config.suppression =
          core::SuppressionThresholds{setting.space_m, setting.time_min};
    }
    const RunReport report = api::run_or_exit(engine, data, config);
    const auto summary =
        core::summarize_accuracy(core::measure_accuracy(report.anonymized));
    const double discarded =
        static_cast<double>(report.counters.deleted_samples) /
        static_cast<double>(report.counters.input_samples);
    table.row({setting.space_label, setting.time_label,
               stats::fmt_pct(discarded),
               stats::fmt(summary.mean_position_m / 1'000.0, 2) + "km",
               stats::fmt(summary.median_position_m / 1'000.0, 2) + "km",
               stats::fmt(summary.mean_time_min, 1) + "min",
               stats::fmt(summary.median_time_min, 1) + "min"});
  }
  table.print(std::cout);
  std::cout << "\nguidance (Sec. 7.1): pick the mildest thresholds whose "
               "mean accuracy meets your\nanalysis needs — the first few "
               "percent of suppressed outliers buy most of the gain.\n";
  return 0;
}
