// perfbench_harness: the benchmark's entry into the GLOVE library.
//
//   perfbench_harness anonymize --input=IN --output=OUT [Engine run flags]
//       [--report=r.json] [--trace-out=t.json] [--layers-out=l.json]
//       [--metrics-out=m.txt]
//   perfbench_harness serve --input=events.csv --out-dir=DIR
//       --window-min=120 [Engine run flags] [--trace-out=t.json]
//       [--metrics-out=m.txt]
//   perfbench_harness accuracy --release=FILE
//   perfbench_harness scan --input=events.csv
//
// `anonymize` runs one file-to-file Engine::run, exactly as
// example_anonymize_csv's streaming mode does.  With --layers-out the
// real file source and sink are wrapped in forwarding adapters that time
// every call into them, split by pass over the source, and write that
// ledger as JSON; without it the run is untouched.  `serve` drives the
// public ServeDaemon API the way glove_serve does, without --follow.
// Both write the process-wide obs counters on exit (--metrics-out), which
// the per-run report sections only see in part; `serve` also prints how
// many events the daemon ingested.  `accuracy` prints the mean and median
// position/time accuracy of a published release (the paper's Tab. 2 and
// Fig. 7 measures) as one JSON line.  `scan` parses a CDR event stream
// once with cdr::CdrEventReader and prints its event count.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "glove/api/cli.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/serve/config.hpp"
#include "glove/serve/daemon.hpp"

namespace {

using namespace glove;
using Clock = std::chrono::steady_clock;

/// Source and sink time of one pass over the source.  A pass starts at
/// each rewind() and at each fetch() the source serves; sink calls land in
/// the pass that is current when they happen, which is how the benchmark
/// tells shard-batch output from reconcile output.
struct PassLedger {
  double source_seconds = 0.0;
  double sink_seconds = 0.0;
  std::uint64_t yielded = 0;     ///< fingerprints next() handed out
  std::uint64_t fetched = 0;     ///< fingerprints fetch() materialized
  std::uint64_t summaries = 0;   ///< index entries summaries() served
  std::uint64_t groups_written = 0;
  bool touched = false;
};

class Ledger {
 public:
  PassLedger& current() { return passes_.back(); }

  void begin_pass() {
    if (current().touched) passes_.emplace_back();
  }

  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out << std::setprecision(17) << "{\"passes\": [";
    for (std::size_t i = 0; i < passes_.size(); ++i) {
      const PassLedger& p = passes_[i];
      out << (i == 0 ? "" : ", ") << "{\"source_s\": " << p.source_seconds
          << ", \"sink_s\": " << p.sink_seconds
          << ", \"yielded\": " << p.yielded << ", \"fetched\": " << p.fetched
          << ", \"summaries\": " << p.summaries
          << ", \"groups_written\": " << p.groups_written << "}";
    }
    out << "]}\n";
    return out.str();
  }

 private:
  std::vector<PassLedger> passes_ = std::vector<PassLedger>(1);
};

/// Adds the wall time of its scope to `total`.
class Stopwatch {
 public:
  explicit Stopwatch(double& total) : total_{total} {}
  ~Stopwatch() {
    total_ += std::chrono::duration<double>(Clock::now() - start_).count();
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  double& total_;
  Clock::time_point start_ = Clock::now();
};

/// Forwards every DatasetSource virtual to the real source, so the
/// strategy takes the same data path (footer summaries, block fetches)
/// as on the unwrapped source, and times each call.
class TimedSource final : public api::DatasetSource {
 public:
  TimedSource(api::DatasetSource& inner, Ledger& ledger)
      : inner_{inner}, ledger_{ledger} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_.kind();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  bool next(cdr::Fingerprint& fingerprint) override {
    PassLedger& pass = ledger_.current();
    pass.touched = true;
    const Stopwatch watch{pass.source_seconds};
    const bool more = inner_.next(fingerprint);
    if (more) ++pass.yielded;
    return more;
  }

  void rewind() override {
    ledger_.begin_pass();
    PassLedger& pass = ledger_.current();
    pass.touched = true;
    const Stopwatch watch{pass.source_seconds};
    inner_.rewind();
  }

  [[nodiscard]] std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }

  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return inner_.materialized();
  }

  bool summaries(std::vector<cdr::FingerprintSummary>& out) override {
    double seconds = 0.0;
    bool served = false;
    {
      const Stopwatch watch{seconds};
      served = inner_.summaries(out);
    }
    PassLedger& pass = ledger_.current();
    pass.source_seconds += seconds;
    if (served) {
      pass.touched = true;
      pass.summaries += out.size();
    }
    return served;
  }

  std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) override {
    double seconds = 0.0;
    std::optional<std::uint64_t> fetched;
    {
      const Stopwatch watch{seconds};
      fetched = inner_.fetch(slot_of_id, store);
    }
    // A source without random access declines, and the caller rewinds and
    // re-streams; only a served fetch is a pass of its own.
    if (fetched) {
      ledger_.begin_pass();
      ledger_.current().touched = true;
      ledger_.current().fetched += *fetched;
    }
    ledger_.current().source_seconds += seconds;
    return fetched;
  }

  [[nodiscard]] const api::SourceIoStats* io_stats() const noexcept override {
    return inner_.io_stats();
  }

  [[nodiscard]] std::optional<std::string> file_path() const override {
    return inner_.file_path();
  }

 private:
  api::DatasetSource& inner_;
  Ledger& ledger_;
};

/// Calls a sink's protected do_write.  DatasetSink::write counts the obs
/// sink.* counters before it dispatches, so forwarding through the inner
/// sink's write() would count every group twice and the traced run's obs
/// counters would no longer equal the untraced run's.
struct SinkDispatch : api::DatasetSink {
  static void write(api::DatasetSink& sink, cdr::Fingerprint group) {
    (sink.*(&SinkDispatch::do_write))(std::move(group));
  }
};

/// Forwards every DatasetSink virtual to the real sink and times it.
class TimedSink final : public api::DatasetSink {
 public:
  TimedSink(api::DatasetSink& inner, Ledger& ledger)
      : inner_{inner}, ledger_{ledger} {}

  [[nodiscard]] std::string_view kind() const noexcept override {
    return inner_.kind();
  }
  void begin(const std::string& dataset_name) override {
    const Stopwatch watch{ledger_.current().sink_seconds};
    inner_.begin(dataset_name);
  }
  void finish() override {
    const Stopwatch watch{ledger_.current().sink_seconds};
    inner_.finish();
  }

 protected:
  void do_write(cdr::Fingerprint group) override {
    PassLedger& pass = ledger_.current();
    ++pass.groups_written;
    const Stopwatch watch{pass.sink_seconds};
    SinkDispatch::write(inner_, std::move(group));
  }

 private:
  api::DatasetSink& inner_;
  Ledger& ledger_;
};

void write_text(const std::string& path, const std::string& text) {
  std::ofstream file{path};
  file << text;
  file.flush();
  if (!file) throw std::runtime_error{"cannot write " + path};
}

void define_common_flags(util::Flags& flags, const Engine& engine) {
  api::define_run_flags(flags, engine, api::kStrategySharded);
  api::define_observability_flags(flags);
  flags.define("input", "", "input file (required)");
  flags.define("metrics-out", "",
               "write the process-wide obs metrics (text form) here on exit");
}

void finish(const util::Flags& flags) {
  api::finish_observability(flags, std::cout);
  if (!flags.get("metrics-out").empty()) {
    write_text(flags.get("metrics-out"),
               obs::render_metrics_text(obs::snapshot_metrics()));
  }
}

int run_anonymize(int argc, const char* const* argv) {
  const Engine engine;
  util::Flags flags{"perfbench_harness anonymize: one file-to-file run"};
  define_common_flags(flags, engine);
  flags.define("output", "", "release path (required)");
  flags.define("layers-out", "",
               "wrap the source and sink in timing adapters and write their "
               "per-pass ledger (JSON) here");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc, argv, exit_code)) return exit_code;
  if (flags.get("input").empty() || flags.get("output").empty()) {
    std::cerr << "error: --input and --output are required\n";
    return 1;
  }

  api::start_observability(flags);
  const api::RunConfig config = api::run_config_from_flags(flags);
  const auto source = api::open_dataset_source(flags.get("input"));
  const auto sink = api::make_dataset_sink(flags.get("output"));
  const std::string& layers_out = flags.get("layers-out");
  RunReport report;
  if (layers_out.empty()) {
    report = api::run_streaming_or_exit(engine, *source, *sink, config);
  } else {
    Ledger ledger;
    TimedSource timed_source{*source, ledger};
    TimedSink timed_sink{*sink, ledger};
    report = api::run_streaming_or_exit(engine, timed_source, timed_sink,
                                        config);
    write_text(layers_out, ledger.json());
  }
  api::maybe_write_report(flags, report, std::cout);
  finish(flags);
  return 0;
}

int run_serve(int argc, const char* const* argv) {
  const Engine engine;
  util::Flags flags{"perfbench_harness serve: replay a CDR stream file"};
  define_common_flags(flags, engine);
  flags.define("out-dir", "", "snapshot/report directory (required)");
  flags.define("window-min", "1440", "event-time window length, minutes");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc, argv, exit_code)) return exit_code;
  if (flags.get("input").empty() || flags.get("out-dir").empty()) {
    std::cerr << "error: --input and --out-dir are required\n";
    return 1;
  }

  // glove_serve's defaults, which the serve_replay workload runs with.
  serve::ServeConfig config;
  config.input_path = flags.get("input");
  config.out_dir = flags.get("out-dir");
  config.window_min = flags.get_double("window-min");
  config.builder.projection_origin = geo::LatLon{6.82, -5.28};
  config.run = api::run_config_from_flags(flags);

  api::start_observability(flags);
  serve::ServeDaemon daemon{std::move(config)};
  const serve::ServeSummary summary = daemon.run();
  finish(flags);
  if (summary.exit_code != 0) {
    std::cerr << "error: " << summary.error << '\n';
    return summary.exit_code;
  }
  std::cout << "{\"events_ingested\": " << summary.events_ingested << "}\n";
  return 0;
}

int run_scan(int argc, const char* const* argv) {
  util::Flags flags{"perfbench_harness scan: parse a CDR event stream"};
  flags.define("input", "", "CDR event CSV (required)");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc, argv, exit_code)) return exit_code;
  const std::string& path = flags.get("input");
  std::ifstream in{path};
  if (!in) {
    std::cerr << "error: cannot open for reading: " << path << '\n';
    return 1;
  }
  cdr::CdrEventReader reader{in, path};
  cdr::CdrEvent event;
  while (reader.next(event)) {
  }
  std::cout << "{\"events\": " << reader.rows_read() << "}\n";
  return 0;
}

int run_accuracy(int argc, const char* const* argv) {
  util::Flags flags{"perfbench_harness accuracy: release accuracy"};
  flags.define("release", "", "published dataset file (CSV or glovebin)");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc, argv, exit_code)) return exit_code;
  const auto source = api::open_dataset_source(flags.get("release"));
  const core::AccuracySummary summary =
      core::summarize_accuracy(core::measure_accuracy(api::collect(*source)));
  std::cout << std::setprecision(17)
            << "{\"pos_err_mean_km\": " << summary.mean_position_m / 1e3
            << ", \"pos_err_median_km\": " << summary.median_position_m / 1e3
            << ", \"time_err_mean_min\": " << summary.mean_time_min
            << ", \"time_err_median_min\": " << summary.median_time_min
            << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "anonymize") return run_anonymize(argc - 2, argv + 2);
    if (mode == "serve") return run_serve(argc - 2, argv + 2);
    if (mode == "accuracy") return run_accuracy(argc - 2, argv + 2);
    if (mode == "scan") return run_scan(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  std::cerr
      << "usage: perfbench_harness anonymize|serve|accuracy|scan [flags]\n";
  return 1;
}
