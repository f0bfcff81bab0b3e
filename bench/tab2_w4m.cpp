// Tab. 2 reproduction — comparative analysis of W4M-LC and GLOVE.
//
// Four datasets (countrywide civ-like and sen-like, citywide abidjan-like
// and dakar-like subsets), two anonymity levels (k = 2 and k = 5), two
// algorithms.  Rows match the paper's table: discarded fingerprints,
// created samples, deleted samples, mean position error, mean time error.
//
// GLOVE runs with the paper's suppression setting (15 km / 6 h); W4M-LC
// with its suggested delta = 2 km and 10% trash bin.  Paper shape: W4M
// fabricates 17-74% synthetic samples and suffers km-scale/hour-to-day
// scale mean errors, while GLOVE discards no fingerprint, creates nothing,
// deletes a few percent and keeps errors around 1 km / 1 h at k = 2.

#include <iostream>

#include "common/bench_common.hpp"
#include "glove/api/cli.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/stats/table.hpp"

namespace {

using namespace glove;

struct Row {
  std::string dataset;
  std::uint32_t k = 0;
  // W4M-LC
  std::uint64_t w4m_discarded = 0;
  std::uint64_t w4m_created = 0;
  std::uint64_t w4m_deleted = 0;
  double w4m_pos_error_m = 0.0;
  double w4m_time_error_min = 0.0;
  // GLOVE
  std::uint64_t glove_deleted = 0;
  double glove_pos_error_m = 0.0;
  double glove_time_error_min = 0.0;
  std::uint64_t input_samples = 0;
  std::uint64_t input_users = 0;
};

Row run_case(const Engine& engine, const cdr::FingerprintDataset& data,
             std::uint32_t k) {
  Row row;
  row.dataset = data.name();
  row.k = k;
  row.input_samples = data.total_samples();
  row.input_users = data.total_users();

  // Both sides of the table are one Engine run each; only the strategy
  // (and GLOVE's suppression setting) differ.  W4M-LC's delta and trash
  // fraction are the library's constants (baseline/w4m.hpp).
  api::RunConfig w4m_config;
  w4m_config.strategy = api::kStrategyW4M;
  w4m_config.k = k;
  const RunReport w4m = api::run_or_exit(engine, data, w4m_config);
  row.w4m_discarded = w4m.counters.discarded_fingerprints;
  row.w4m_created = w4m.counters.created_samples;
  row.w4m_deleted = w4m.counters.deleted_samples;
  row.w4m_pos_error_m = api::find_metric(w4m, "mean_position_error_m");
  row.w4m_time_error_min = api::find_metric(w4m, "mean_time_error_min");

  api::RunConfig glove_config;
  glove_config.k = k;
  glove_config.suppression = core::SuppressionThresholds{15'000.0, 360.0};
  const RunReport glove = api::run_or_exit(engine, data, glove_config);
  const auto summary =
      core::summarize_accuracy(core::measure_accuracy(glove.anonymized));
  row.glove_deleted = glove.counters.deleted_samples;
  row.glove_pos_error_m = summary.mean_position_m;
  row.glove_time_error_min = summary.mean_time_min;
  return row;
}

std::string pct(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "0%";
  return stats::fmt_pct(static_cast<double>(part) /
                        static_cast<double>(whole));
}

}  // namespace

int main() {
  const glove::Engine engine;
  const bench::Scale scale = bench::resolve_scale(/*default_users=*/220);
  const cdr::FingerprintDataset civ = bench::make_civ(scale);
  const cdr::FingerprintDataset sen = bench::make_sen(scale);
  const cdr::FingerprintDataset abidjan =
      bench::city_subset(civ, "abidjan-like");
  const cdr::FingerprintDataset dakar = bench::city_subset(sen, "dakar-like");
  bench::print_banner("Tab. 2 (W4M-LC vs GLOVE)", civ);
  bench::print_banner("Tab. 2 (W4M-LC vs GLOVE)", sen);
  bench::print_banner("Tab. 2 (W4M-LC vs GLOVE)", abidjan);
  bench::print_banner("Tab. 2 (W4M-LC vs GLOVE)", dakar);

  for (const std::uint32_t k : {2u, 5u}) {
    stats::TextTable table{"Tab. 2 — W4M-LC vs GLOVE, k = " +
                           std::to_string(k)};
    table.header({"dataset", "metric", "W4M-LC", "GLOVE"});
    for (const auto* data : {&civ, &sen, &abidjan, &dakar}) {
      if (data->size() < 4 * k) {
        std::cout << "  skipping " << data->name()
                  << " (too few users at this scale)\n";
        continue;
      }
      const Row row = run_case(engine, *data, k);
      table.row({row.dataset, "discarded fingerprints",
                 std::to_string(row.w4m_discarded) + " (" +
                     pct(row.w4m_discarded, row.input_users) + ")",
                 "0 (0%)"});
      table.row({"", "created samples",
                 std::to_string(row.w4m_created) + " (" +
                     pct(row.w4m_created, row.input_samples) + ")",
                 "0 (0%)"});
      table.row({"", "deleted samples",
                 std::to_string(row.w4m_deleted) + " (" +
                     pct(row.w4m_deleted, row.input_samples) + ")",
                 std::to_string(row.glove_deleted) + " (" +
                     pct(row.glove_deleted, row.input_samples) + ")"});
      table.row({"", "mean position error",
                 stats::fmt(row.w4m_pos_error_m, 0) + " m",
                 stats::fmt(row.glove_pos_error_m, 0) + " m"});
      table.row({"", "mean time error",
                 stats::fmt(row.w4m_time_error_min, 1) + " min",
                 stats::fmt(row.glove_time_error_min, 1) + " min"});
    }
    table.print(std::cout);
  }
  std::cout << "\n  Paper reference (k=2, d4d-civ): W4M-LC creates 24.9% "
               "samples, mean errors 10.2 km / 1151 min; GLOVE deletes "
               "8.3%, mean errors 1.01 km / 60.2 min.\n";
  return 0;
}
