#include "glove/api/cli.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "glove/cdr/builder.hpp"
#include "glove/cdr/d4d.hpp"
#include "glove/cdr/io.hpp"
#include "glove/obs/log.hpp"
#include "glove/obs/span.hpp"
#include "glove/stats/table.hpp"
#include "glove/synth/generator.hpp"

namespace glove::api {

bool parse_cli(util::Flags& flags, int argc, const char* const* argv,
               int& exit_code) {
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    exit_code = 1;
    return false;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage();
    exit_code = 0;
    return false;
  }
  return true;
}

void define_run_flags(util::Flags& flags, const Engine& engine,
                      std::string_view default_strategy) {
  flags.define_enum("strategy", std::string{default_strategy},
                    engine.strategies(), "anonymization strategy");
  flags.define("k", "2", "anonymity level (every group hides >= k users)");
  flags.define("suppress-km", "0",
               "spatial suppression threshold in km (0 = off)");
  flags.define("suppress-hours", "0",
               "temporal suppression threshold in hours (0 = off)");
  flags.define("tile-km", "0",
               "spatial tile edge in km for --strategy=sharded (0 = "
               "adaptive from the observed anchor density)");
  flags.define("shard-users", "2000",
               "max fingerprints per shard for --strategy=sharded");
  flags.define("shard-workers", "0",
               "threads that run sharded shard and reconcile jobs (0 = "
               "GLOVE_THREADS / hardware concurrency)");
  flags.define("halo-km", "1",
               "border strip width in km deferred to reconciliation");
  // --border and --executor set nothing: a sharded run always defers its
  // border fingerprints and runs its jobs on an in-process thread pool.
  // The flags stay because scripts pass --border=halo and
  // --executor=inprocess (perfbench's city_halo_k2 among them) and an
  // unknown flag is fatal.
  flags.define_enum("border", "halo", {"halo"},
                    "sharded border policy (accepted for compatibility; "
                    "border fingerprints are always deferred to "
                    "reconciliation)");
  flags.define_enum("executor", "inprocess", {"inprocess"},
                    "sharded execution backend (accepted for compatibility; "
                    "jobs always run on an in-process thread pool)");
  flags.define("report", "", "write the run report (JSON) to this path");
}

void define_observability_flags(util::Flags& flags) {
  flags.define("trace-out", "",
               "write a Chrome trace-event JSON of the run's spans to this "
               "path (load in chrome://tracing or ui.perfetto.dev); the "
               "anonymized output is byte-identical with or without it");
  flags.define("verbose", "false",
               "rate-limited structured progress lines on stderr "
               "(ts level phase key=value)");
}

void start_observability(const util::Flags& flags) {
  obs::set_log_verbose(flags.get_bool("verbose"));
  if (!flags.get("trace-out").empty()) obs::start_tracing();
}

void finish_observability(const util::Flags& flags, std::ostream& out) {
  // Before anything else: surface log lines the rate limiter dropped
  // since the last emitted one — the process is about to exit, so the
  // "next admitted line" that normally reports them never comes.
  obs::flush_suppressed_log();
  const std::string& path = flags.get("trace-out");
  if (path.empty()) return;
  const std::string document = obs::stop_tracing_and_render();
  std::ofstream file{path};
  if (!file) throw std::runtime_error{"cannot open for writing: " + path};
  file << document;
  file.flush();
  if (!file) throw std::runtime_error{"failed writing: " + path};
  out << "wrote trace: " << path << '\n';
}

RunConfig run_config_from_flags(const util::Flags& flags) {
  RunConfig config;
  config.strategy = flags.get("strategy");
  config.k = flags.get_int<std::uint32_t>("k");
  const double suppress_km = flags.get_double("suppress-km");
  const double suppress_hours = flags.get_double("suppress-hours");
  if (suppress_km > 0.0 || suppress_hours > 0.0) {
    config.suppression = core::SuppressionThresholds{
        suppress_km > 0.0 ? suppress_km * 1'000.0
                          : std::numeric_limits<double>::infinity(),
        suppress_hours > 0.0 ? suppress_hours * 60.0
                             : std::numeric_limits<double>::infinity()};
  }
  config.sharded.tile_size_m = flags.get_double("tile-km") * 1'000.0;
  config.sharded.max_shard_users = flags.get_int<std::size_t>("shard-users");
  config.sharded.workers = flags.get_int<std::size_t>("shard-workers");
  config.sharded.halo_m = flags.get_double("halo-km") * 1'000.0;
  return config;
}

void define_synth_flags(util::Flags& flags, std::size_t default_users,
                        double default_days, std::uint64_t default_seed,
                        std::string_view default_preset) {
  flags.define("users", std::to_string(default_users),
               "synthetic population size");
  std::ostringstream days;
  days << default_days;
  flags.define("days", days.str(), "trace timespan in days");
  flags.define("seed", std::to_string(default_seed), "generator seed");
  flags.define_enum("preset", std::string{default_preset}, {"civ", "sen"},
                    "synthetic dataset preset (civ-like or sen-like)");
}

cdr::FingerprintDataset synth_dataset_from_flags(const util::Flags& flags) {
  const auto users = flags.get_int<std::size_t>("users");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  synth::SynthConfig config = flags.get("preset") == "sen"
                                  ? synth::sen_like(users, seed)
                                  : synth::civ_like(users, seed);
  config.days = flags.get_double("days");
  return synth::generate_dataset(config);
}

void define_input_flags(util::Flags& flags) {
  flags.define_enum("format", "flat", {"flat", "d4d", "csv", "glovebin"},
                    "input trace format: 'flat' (user,time_min,lat,lon) or "
                    "'d4d' (user,timestamp,antenna_id; needs --antennas); "
                    "'csv'/'glovebin' force the dataset format written by "
                    "streaming --output / --convert (default: by extension)");
  flags.define("antennas", "",
               "D4D antenna file (antenna_id,lat,lon); required with "
               "--format=d4d");
  flags.define("origin-lat", "6.82", "projection origin latitude");
  flags.define("origin-lon", "-5.28", "projection origin longitude");
}

cdr::FingerprintDataset load_dataset(const std::string& path,
                                     const util::Flags& flags) {
  std::vector<cdr::CdrEvent> events;
  if (flags.get("format") == "d4d") {
    const std::string antenna_path = flags.get("antennas");
    if (antenna_path.empty()) {
      throw std::invalid_argument{"--format=d4d requires --antennas=FILE"};
    }
    const cdr::AntennaTable antennas =
        cdr::read_d4d_antennas_file(antenna_path);
    cdr::D4DTrace trace = cdr::read_d4d_trace_file(path, antennas);
    events = std::move(trace.events);
  } else {
    events = cdr::read_cdr_file(path);
  }
  cdr::BuilderConfig builder;
  builder.projection_origin = geo::LatLon{flags.get_double("origin-lat"),
                                          flags.get_double("origin-lon")};
  cdr::FingerprintDataset data = cdr::build_fingerprints(events, builder);
  data.set_name(std::filesystem::path{path}.stem().string());
  return data;
}

ConvertStats convert_dataset_file(const std::string& input,
                                  const std::string& output,
                                  std::string_view format) {
  const std::unique_ptr<DatasetSource> source = open_dataset_source(input);
  const std::unique_ptr<DatasetSink> sink = make_dataset_sink(output, format);
  sink->begin(source->name());
  ConvertStats stats;
  cdr::Fingerprint fp;
  while (source->next(fp)) {
    ++stats.fingerprints;
    stats.samples += fp.size();
    sink->write(std::move(fp));
  }
  sink->finish();
  return stats;
}

namespace {

RunReport value_or_exit(Result<RunReport> result) {
  if (!result.ok()) {
    std::cerr << "error [" << to_string(result.error().code)
              << "]: " << result.error().message << '\n';
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

RunReport run_or_exit(const Engine& engine,
                      const cdr::FingerprintDataset& data,
                      const RunConfig& config) {
  return value_or_exit(engine.run(data, config));
}

RunReport run_streaming_or_exit(const Engine& engine, DatasetSource& source,
                                DatasetSink& sink, const RunConfig& config) {
  return value_or_exit(engine.run(source, sink, config));
}

void maybe_write_report(const util::Flags& flags, const RunReport& report,
                        std::ostream& out) {
  const std::string& path = flags.get("report");
  if (path.empty()) return;
  write_report_file(path, report);
  out << "wrote run report: " << path << '\n';
}

std::string summarize_report(const RunReport& report) {
  std::ostringstream out;
  out << report.config.strategy << ": " << report.counters.output_groups
      << " groups (k=" << report.config.k << "), "
      << report.counters.output_samples << " samples";
  if (report.counters.deleted_samples > 0) {
    out << "; deleted " << report.counters.deleted_samples << " samples";
  }
  if (report.counters.created_samples > 0) {
    out << "; created " << report.counters.created_samples
        << " synthetic samples";
  }
  if (report.counters.discarded_fingerprints > 0) {
    out << "; discarded " << report.counters.discarded_fingerprints
        << " fingerprints";
  }
  out << "; " << stats::fmt(report.timings.total_seconds, 2) << "s";
  return out.str();
}

}  // namespace glove::api
