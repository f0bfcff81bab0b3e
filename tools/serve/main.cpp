// glove-serve: continuous-ingestion daemon with windowed incremental
// re-anonymization (the service-mode face of the GLOVE pipeline).
//
//   ./build/tools/serve/glove_serve --input=events.csv --out-dir=out
//       [--follow] [--poll-ms=200] [--queue-capacity=65536]
//       [--window-min=1440] [--snapshot-format=csv|glovebin]
//       [--name=serve] [--admin-socket=/tmp/glove.sock]
//       [--origin-lat=6.82 --origin-lon=-5.28] [--grid-m=100]
//       [--time-step-min=1]
//       [--strategy=... --k=... and the other Engine run flags]
//       [--trace-out=trace.json] [--verbose]
//
// The daemon tails --input (a raw "user,time_min,lat,lon" CDR stream),
// folds events into per-user fingerprints on --window-min event-time
// windows, and publishes one k-anonymized snapshot per closed window
// under --out-dir (snapshot-NNNNNN.<ext> + report-NNNNNN.json, each
// atomically renamed into place).  The first epoch runs the configured
// --strategy; every later epoch runs the incremental strategy over the
// previous release, so published groups never shrink or split.
//
// With --follow the daemon keeps polling for appended events until it is
// drained — by SIGTERM/SIGINT or by the `drain` admin command — at which
// point it closes the open window, publishes a final snapshot and exits
// with status 0.  Without --follow it drains by itself at end of file.

#include <iostream>
#include <utility>

#include "glove/api/cli.hpp"
#include "glove/serve/config.hpp"
#include "glove/serve/daemon.hpp"

namespace {

glove::serve::ServeConfig config_from_flags(const glove::util::Flags& flags) {
  using namespace glove;
  serve::ServeConfig config;
  config.input_path = flags.get("input");
  config.follow = flags.get_bool("follow");
  config.poll_interval_ms = flags.get_int<int>("poll-ms");
  config.queue_capacity = flags.get_int<std::size_t>("queue-capacity");
  config.window_min = flags.get_double("window-min");
  config.out_dir = flags.get("out-dir");
  config.snapshot_format = flags.get("snapshot-format");
  config.dataset_name = flags.get("name");
  config.admin_socket = flags.get("admin-socket");
  config.builder.projection_origin = geo::LatLon{
      flags.get_double("origin-lat"), flags.get_double("origin-lon")};
  config.builder.grid_cell_m = flags.get_double("grid-m");
  config.builder.time_step_min = flags.get_double("time-step-min");
  config.run = api::run_config_from_flags(flags);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glove;
  const Engine engine;
  util::Flags flags{
      "glove-serve: tail a CDR event stream and publish k-anonymized\n"
      "snapshots per event-time window; later epochs re-anonymize\n"
      "incrementally so published groups never shrink or split.\n"
      "usage: glove_serve --input=events.csv [flags]"};
  api::define_run_flags(flags, engine, api::kStrategySharded);
  api::define_observability_flags(flags);
  flags.define("input", "",
               "CDR event stream to tail (CSV rows user,time_min,lat,lon; "
               "required)");
  flags.define("follow", "false",
               "keep polling for appended events until drained "
               "(SIGTERM/SIGINT or the admin `drain` command); default "
               "drains at end of file");
  flags.define("poll-ms", "200", "tail poll interval, milliseconds");
  flags.define("queue-capacity", "65536",
               "bounded ingest queue capacity in events; a full queue "
               "blocks the tail reader (backpressure)");
  flags.define("window-min", "1440",
               "event-time window length in minutes; each closed window "
               "publishes one snapshot epoch");
  flags.define("out-dir", "serve-out",
               "snapshot/report output directory (created if missing)");
  flags.define_enum("snapshot-format", "csv", {"csv", "glovebin"},
                    "published snapshot dataset format");
  flags.define("name", "serve",
               "dataset name stem; epoch N publishes \"<stem>-epoch-N\"");
  flags.define("admin-socket", "",
               "AF_UNIX admin socket path (line protocol: health / "
               "metrics / drain); empty disables the admin surface");
  flags.define("origin-lat", "6.82", "projection origin latitude");
  flags.define("origin-lon", "-5.28", "projection origin longitude");
  flags.define("grid-m", "100", "spatial discretization step, metres");
  flags.define("time-step-min", "1",
               "temporal discretization step, minutes");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  try {
    if (flags.get("input").empty()) {
      std::cerr << "error: --input is required\n";
      return 1;
    }
    if (!flags.get("report").empty()) {
      std::cerr << "error: glove-serve writes per-epoch reports under "
                   "--out-dir; --report is not used\n";
      return 1;
    }
    api::start_observability(flags);
    serve::ServeDaemon daemon{config_from_flags(flags)};
    serve::install_drain_signal_handlers(daemon);
    const serve::ServeSummary summary = daemon.run();
    api::finish_observability(flags, std::cout);
    if (summary.exit_code != 0) {
      std::cerr << "error: " << summary.error << '\n';
      return summary.exit_code;
    }
    std::cout << "drained: " << summary.events_ingested << " events, "
              << summary.windows_closed << " windows, "
              << summary.epochs_published << " epochs published";
    if (!summary.last_snapshot_path.empty()) {
      std::cout << "; last snapshot " << summary.last_snapshot_path;
    }
    std::cout << '\n';
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
