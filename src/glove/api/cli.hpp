// CLI glue shared by the examples and bench drivers: flag definitions for
// the Engine's RunConfig, dataset acquisition (CSV / D4D file or seeded
// synthetic population), and report output.  Before the Engine each
// binary re-implemented this load -> configure -> run -> report loop.

#ifndef GLOVE_API_CLI_HPP
#define GLOVE_API_CLI_HPP

#include <cstdint>
#include <iosfwd>
#include <string>

#include "glove/api/engine.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/util/flags.hpp"

namespace glove::api {

/// Parses argv (excluding argv[0]).  Returns true to continue; false when
/// the binary should exit with `exit_code` (0 after printing --help usage,
/// 1 after printing a parse error).
bool parse_cli(util::Flags& flags, int argc, const char* const* argv,
               int& exit_code);

/// Registers the Engine run flags: --strategy (enum over
/// engine.strategies()), --k, --suppress-km / --suppress-hours, the
/// sharded strategy's knobs and --report (JSON run-report path).
void define_run_flags(util::Flags& flags, const Engine& engine,
                      std::string_view default_strategy = kStrategyFull);

/// Builds a RunConfig from flags registered by define_run_flags.
[[nodiscard]] RunConfig run_config_from_flags(const util::Flags& flags);

/// Registers synthetic-population flags: --users, --days, --seed and
/// --preset (civ|sen).
void define_synth_flags(util::Flags& flags, std::size_t default_users,
                        double default_days = 7.0,
                        std::uint64_t default_seed = 42,
                        std::string_view default_preset = "civ");

/// Generates the seeded synthetic dataset those flags describe.
[[nodiscard]] cdr::FingerprintDataset synth_dataset_from_flags(
    const util::Flags& flags);

/// Registers input-file flags: --format (flat|d4d for raw traces;
/// csv|glovebin to force the dataset format in streaming/convert modes),
/// --antennas, --origin-lat / --origin-lon.
void define_input_flags(util::Flags& flags);

/// Registers the observability flags: --trace-out (Chrome trace-event
/// JSON of the run's spans) and --verbose (rate-limited structured stderr
/// logging).  Neither affects the anonymized output or the run report's
/// deterministic sections.
void define_observability_flags(util::Flags& flags);

/// Applies the observability flags: enables verbose logging and starts
/// span recording when --trace-out is set.  Call before the run.
void start_observability(const util::Flags& flags);

/// Stops span recording and writes the trace file named by --trace-out
/// (no-op when the flag is empty), logging the path.  Throws
/// std::runtime_error on I/O failure.
void finish_observability(const util::Flags& flags, std::ostream& out);

/// Result of a dataset format conversion.
struct ConvertStats {
  std::uint64_t fingerprints = 0;
  std::uint64_t samples = 0;
};

/// Converts a fingerprint dataset file between formats: the input is
/// sniffed by magic bytes (glovebin vs CSV), the output selected by
/// `format` ("csv"/"glovebin", or "" to pick by the output extension).
/// The stored dataset name is carried across, so csv -> glovebin -> csv
/// round-trips byte-identically.  Throws on I/O or parse failure.
ConvertStats convert_dataset_file(const std::string& input,
                                  const std::string& output,
                                  std::string_view format = {});

/// Reads `path` as a raw CDR trace in the flags-selected format and
/// builds fingerprints, naming the dataset by the file's stem ("city" for
/// traces/city.csv), never by a directory.  Throws on I/O or format
/// errors.
[[nodiscard]] cdr::FingerprintDataset load_dataset(const std::string& path,
                                                   const util::Flags& flags);

/// Runs the Engine; on error prints the typed error to stderr and calls
/// std::exit(1).  For CLI binaries where every error is fatal.
[[nodiscard]] RunReport run_or_exit(const Engine& engine,
                                    const cdr::FingerprintDataset& data,
                                    const RunConfig& config);

/// Streaming variant: source in, sink out (file-to-file runs).  Same
/// fatal-error contract as run_or_exit.
[[nodiscard]] RunReport run_streaming_or_exit(const Engine& engine,
                                              DatasetSource& source,
                                              DatasetSink& sink,
                                              const RunConfig& config);

/// Writes the --report file when the flag is non-empty, logging the path.
void maybe_write_report(const util::Flags& flags, const RunReport& report,
                        std::ostream& out);

/// One-line human summary: groups, samples, deletions, timings.
[[nodiscard]] std::string summarize_report(const RunReport& report);

}  // namespace glove::api

#endif  // GLOVE_API_CLI_HPP
