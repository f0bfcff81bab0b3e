// gen_cdr_stream: write a synthetic raw CDR event stream in *time order* —
// the file a network probe would append to, and the input glove-serve
// tails.  The synthesizer emits events sorted by user then time (the batch
// layout); a live stream interleaves users chronologically, so this tool
// re-sorts by timestamp before writing.
//
//   ./build/examples/example_gen_cdr_stream --output=events.csv
//       [--users=120 --days=3 --seed=11 --preset=civ|sen]
//
// The output is the cdr::CdrEventReader CSV format
// (user,time_min,lat,lon), deterministic in --seed, so CI can split it at
// arbitrary byte offsets to simulate a growing live tail.

#include <algorithm>
#include <iostream>
#include <vector>

#include "glove/api/cli.hpp"
#include "glove/cdr/io.hpp"
#include "glove/synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace glove;
  util::Flags flags{
      "gen_cdr_stream: synthetic CDR events in time order (a live tail)\n"
      "usage: gen_cdr_stream --output=events.csv [flags]"};
  api::define_synth_flags(flags, /*default_users=*/120,
                          /*default_days=*/3.0, /*default_seed=*/11);
  flags.define("output", "events.csv", "CDR stream output path");
  int exit_code = 0;
  if (!api::parse_cli(flags, argc - 1, argv + 1, exit_code)) return exit_code;

  try {
    synth::SynthConfig config =
        flags.get("preset") == "sen"
            ? synth::sen_like(flags.get_int<std::size_t>("users"))
            : synth::civ_like(flags.get_int<std::size_t>("users"));
    config.days = flags.get_double("days");
    config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

    std::vector<cdr::PlanarEvent> planar = synth::generate_events(config);
    // Stable sort: events in the same minute keep the generator's
    // user-then-time order, so the stream is deterministic in the seed.
    std::stable_sort(planar.begin(), planar.end(),
                     [](const cdr::PlanarEvent& a, const cdr::PlanarEvent& b) {
                       return a.time_min < b.time_min;
                     });
    const std::vector<cdr::CdrEvent> events =
        synth::to_latlon_events(planar, config);

    const std::string output = flags.get("output");
    cdr::write_cdr_file(output, events);
    double span_min = 0.0;
    if (!events.empty()) {
      span_min = events.back().time_min - events.front().time_min;
    }
    std::cout << "wrote " << output << ": " << events.size()
              << " events over " << span_min / 60.0 << " hours\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
