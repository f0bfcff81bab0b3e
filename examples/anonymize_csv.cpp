// anonymize_csv: the file-to-file pipeline a data-publishing operator would
// run — read a raw CDR trace (user,time_min,lat,lon), build fingerprints,
// k-anonymize through glove::Engine and write the publishable dataset.
//
//   ./build/examples/example_anonymize_csv input.csv output.csv --k=2
//       [--strategy=full|sharded|incremental|w4m-baseline]
//       [--origin-lat=6.82 --origin-lon=-5.28] [--suppress-km=15]
//       [--suppress-hours=6] [--report=run.json]
//       [--trace-out=trace.json] [--verbose]
//       [--tile-km=0 --shard-users=2000 --shard-workers=0
//        --halo-km=1]     (sharded strategy knobs; --shard-workers=1
//                          holds the fewest fingerprints at once)
//
// Streaming mode — for fingerprint-dataset CSVs larger than RAM.  The
// Engine pulls from a CsvFileSource and pushes finalized groups to a
// CsvFileSink; with --strategy=sharded peak memory stays O(largest shard
// batch) instead of O(dataset):
//
//   ./build/examples/example_anonymize_csv --input=dataset.csv
//       --output=anonymized.csv --strategy=sharded
//
// The streaming --input is sniffed by magic bytes, so it may be a CSV or a
// glovebin file (cdr/binio.hpp); --output picks its format by extension
// (".glovebin" vs CSV) or explicitly via --format=csv|glovebin.  Glovebin
// inputs serve the sharded strategy's planning pass from the footer index
// and rewound passes map only the blocks they need.
//
// Generate a synthetic fingerprint dataset to stream (then exit):
//
//   ./build/examples/example_anonymize_csv --synth-dataset=dataset.csv
//       --users=50000 --days=2 --seed=7
//
// Convert a dataset between the CSV and glovebin formats (then exit):
//
//   ./build/examples/example_anonymize_csv --convert --input=dataset.csv
//       --output=dataset.glovebin
//
// Holders of the actual D4D challenge files can run the paper's exact
// pipeline with:
//
//   ./build/examples/example_anonymize_csv SET2_trace.csv out.csv
//       --format=d4d --antennas=SITE_ARR_LONLAT.CSV
//
// Without an input file the example writes a demo trace first (so it is
// runnable out of the box) and anonymizes that.

#include <filesystem>
#include <iostream>
#include <system_error>

#include "glove/api/cli.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/glove.hpp"
#include "glove/stats/table.hpp"
#include "glove/synth/generator.hpp"

namespace {

/// Streams the published file once more and verifies every group hides at
/// least k users — the safety check of the in-memory path, kept O(1 group)
/// so it works on outputs larger than RAM.
bool streamed_output_is_k_anonymous(const std::string& path,
                                    std::uint32_t k) {
  const auto check = glove::api::open_dataset_source(path);
  glove::cdr::Fingerprint fp;
  while (check->next(fp)) {
    if (fp.group_size() < k) return false;
  }
  return true;
}

/// "csv"/"glovebin" when --format forces the dataset format, "" when the
/// flag still holds a raw-trace format (the sink then picks by extension).
std::string_view sink_format(const glove::util::Flags& flags) {
  const std::string& format = flags.get("format");
  if (format == "csv" || format == "glovebin") return format;
  return {};
}

int run_streaming(const glove::Engine& engine,
                  const glove::util::Flags& flags) {
  using namespace glove;
  const std::string input = flags.get("input");
  const std::string output = flags.get("output").empty()
                                 ? "anonymized.csv"
                                 : flags.get("output");
  // The sink truncates its path on construction — writing onto the input
  // would destroy the dataset before the first read.
  std::error_code ec;
  if (input == output ||
      std::filesystem::equivalent(input, output, ec)) {
    std::cerr << "error: --output must not be the input file (" << input
              << ")\n";
    return 1;
  }
  if (flags.get_bool("convert")) {
    const api::ConvertStats stats =
        api::convert_dataset_file(input, output, sink_format(flags));
    std::cout << "converted " << input << " -> " << output << " ("
              << stats.fingerprints << " fingerprints, " << stats.samples
              << " samples)\n";
    return 0;
  }
  const api::RunConfig config = api::run_config_from_flags(flags);

  const auto source = api::open_dataset_source(input);
  const auto sink = api::make_dataset_sink(output, sink_format(flags));
  const RunReport report =
      api::run_streaming_or_exit(engine, *source, *sink, config);

  if (!streamed_output_is_k_anonymous(output, config.k)) {
    std::cerr << "ERROR: output is not k-anonymous\n";
    return 1;
  }
  std::cout << "streamed " << input << " -> " << output << ": "
            << api::summarize_report(report) << "\npasses over the source:";
  for (const std::uint64_t count : report.pass_fingerprints) {
    std::cout << ' ' << count;
  }
  std::cout << " fingerprints";
  if (report.file_blocks > 0) {
    std::cout << "; blocks read " << report.blocks_read << " (file holds "
              << report.file_blocks << ")";
  }
  std::cout << "; peak rss "
            << report.peak_rss_bytes / (1024 * 1024) << " MiB\n";
  api::maybe_write_report(flags, report, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glove;
  const Engine engine;
  util::Flags flags{
      "anonymize_csv: raw CDR csv -> glove::Engine -> anonymized dataset csv\n"
      "usage: anonymize_csv [input.csv [output.csv]] [flags]\n"
      "       anonymize_csv --input=dataset.csv --output=anon.csv  "
      "(streaming)"};
  api::define_run_flags(flags, engine);
  api::define_observability_flags(flags);
  api::define_input_flags(flags);
  api::define_synth_flags(flags, /*default_users=*/1'000);
  flags.define("demo-users", "80", "users in the generated demo trace");
  flags.define("input", "",
               "stream an existing fingerprint-dataset CSV through the "
               "Source/Sink Engine boundary (file-to-file; skips the "
               "trace-building stage)");
  flags.define("output", "",
               "streaming output path (default anonymized.csv; only with "
               "--input)");
  flags.define("synth-dataset", "",
               "write a synthetic fingerprint dataset (sized by "
               "--users/--days/--seed/--preset; format by extension or "
               "--format) to this path and exit");
  flags.define("convert", "false",
               "convert --input to --output between the csv and glovebin "
               "dataset formats (no anonymization; --format=csv|glovebin "
               "forces the output format, default by extension)");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  try {
    api::start_observability(flags);
    if (!flags.get("synth-dataset").empty()) {
      const std::string path = flags.get("synth-dataset");
      const cdr::FingerprintDataset data = api::synth_dataset_from_flags(flags);
      const auto sink = api::make_dataset_sink(path, sink_format(flags));
      sink->begin(data.name());
      for (const cdr::Fingerprint& fp : data.fingerprints()) sink->write(fp);
      sink->finish();
      std::cout << "wrote synthetic dataset: " << path << " (" << data.size()
                << " fingerprints, " << data.total_samples()
                << " samples)\n";
      api::finish_observability(flags, std::cout);
      return 0;
    }
    if (!flags.get("input").empty()) {
      const int code = run_streaming(engine, flags);
      api::finish_observability(flags, std::cout);
      return code;
    }

    const std::string input = flags.positional().size() > 0
                                  ? flags.positional()[0]
                                  : "demo_cdr.csv";
    const std::string output = flags.positional().size() > 1
                                   ? flags.positional()[1]
                                   : "demo_anonymized.csv";

    // Generate a demo trace when no input exists.
    if (flags.positional().empty()) {
      synth::SynthConfig config = synth::civ_like(
          flags.get_int<std::size_t>("demo-users"), 7);
      config.days = 5.0;
      const auto events =
          synth::to_latlon_events(synth::generate_events(config), config);
      cdr::write_cdr_file(input, events);
      std::cout << "wrote demo CDR trace: " << input << " ("
                << events.size() << " events)\n";
    }

    // 1. Read and project the trace (Sec. 3 pipeline).
    const cdr::FingerprintDataset data = api::load_dataset(input, flags);
    std::cout << "read " << input << " -> " << data.size()
              << " fingerprints, " << data.total_samples() << " samples\n";

    // 2. Anonymize through the Engine with the flag-selected strategy.
    const api::RunConfig config = api::run_config_from_flags(flags);
    const RunReport report = api::run_or_exit(engine, data, config);

    // 3. Verify and write.
    if (!core::is_k_anonymous(report.anonymized, config.k)) {
      std::cerr << "ERROR: output is not k-anonymous\n";
      return 1;
    }
    cdr::write_dataset_file(output, report.anonymized);
    const auto summary =
        core::summarize_accuracy(core::measure_accuracy(report.anonymized));
    std::cout << "wrote " << output << ": " << api::summarize_report(report)
              << "\nmedian accuracy: "
              << stats::fmt(summary.median_position_m / 1'000.0, 2)
              << " km / " << stats::fmt(summary.median_time_min, 1)
              << " min\n";
    api::maybe_write_report(flags, report, std::cout);
    api::finish_observability(flags, std::cout);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
