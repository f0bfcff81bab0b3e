// anonymizability_report: the Sec. 4-5 diagnosis, as a tool.
//
// Given a dataset (a raw CDR csv or a generated one), reports:
//   * the k-gap distribution (how far each user is from k-anonymity),
//   * the spatial/temporal decomposition of the stretch efforts,
//   * Tail Weight Index statistics — i.e., *why* the dataset is hard to
//     anonymize (heavy-tailed time diversity).
//
//   ./build/examples/example_anonymizability_report [input.csv] [--k=2]

#include <iostream>

#include "glove/analysis/anonymizability.hpp"
#include "glove/analysis/descriptors.hpp"
#include "glove/api/cli.hpp"
#include "glove/core/kgap.hpp"
#include "glove/util/flags.hpp"
#include "glove/stats/stats.hpp"
#include "glove/stats/table.hpp"

int main(int argc, char** argv) {
  using namespace glove;
  util::Flags flags{
      "anonymizability_report: k-gap and tail diagnosis of a CDR dataset\n"
      "usage: anonymizability_report [input.csv] [flags]"};
  // Diagnosis only — no Engine run, so no run flags beyond k itself.
  flags.define("k", "2", "anonymity level to evaluate");
  api::define_input_flags(flags);
  api::define_synth_flags(flags, /*default_users=*/150, /*default_days=*/7.0,
                          /*default_seed=*/23);
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  try {
    const cdr::FingerprintDataset data =
        flags.positional().empty()
            ? api::synth_dataset_from_flags(flags)
            : api::load_dataset(flags.positional()[0], flags);

    const analysis::DatasetDescriptor d = analysis::describe(data);
    std::cout << "dataset '" << data.name() << "': " << d.fingerprints
              << " users, " << d.samples << " samples, "
              << stats::fmt(d.samples_per_user_per_day, 2)
              << " samples/user/day, median radius of gyration "
              << stats::fmt(d.median_radius_of_gyration_m / 1'000.0, 2)
              << " km\n";

    const auto k = flags.get_int<std::uint32_t>("k");
    const auto kgaps = core::k_gaps(data, k);
    std::vector<double> gaps;
    gaps.reserve(kgaps.size());
    for (const auto& e : kgaps) gaps.push_back(e.gap);
    const stats::Summary gap_summary = stats::summarize(gaps);
    std::size_t anonymous = 0;
    for (const double g : gaps) {
      if (g == 0.0) ++anonymous;
    }
    std::cout << "\nk-gap (k=" << k << "): median "
              << stats::fmt(gap_summary.median, 3) << ", mean "
              << stats::fmt(gap_summary.mean, 3) << ", p75 "
              << stats::fmt(gap_summary.q75, 3) << "; already anonymous: "
              << anonymous << "/" << gaps.size() << " users\n";

    const auto tails =
        analysis::analyze_tails(analysis::stretch_profiles(data, kgaps));
    const stats::EmpiricalCdf share_cdf{tails.temporal_share};
    const stats::EmpiricalCdf twi_s{tails.twi_spatial};
    const stats::EmpiricalCdf twi_t{tails.twi_temporal};
    std::cout << "\nwhy (Sec. 5.3 diagnosis):\n"
              << "  temporal stretch dominates in "
              << stats::fmt_pct(1.0 - share_cdf.at(0.5))
              << " of fingerprints\n"
              << "  heavy temporal tails (TWI >= 1.5): "
              << stats::fmt_pct(1.0 - twi_t.at(1.5)) << " of users\n"
              << "  heavy spatial tails  (TWI >= 1.5): "
              << stats::fmt_pct(1.0 - twi_s.at(1.5)) << " of users\n"
              << "\ninterpretation: where a user generates traffic is easy "
                 "to hide;\nwhen he does is the expensive dimension — "
                 "uniform generalization\nwill fail here, specialized "
                 "(per-sample) generalization will not.\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
