// Shard-executor throughput harness: the same streaming bordered sharded
// run through the in-process thread pool and the multi-process
// coordinator/worker backend, timed side by side with the byte-parity of
// their outputs checked on every run.
//
//   GLOVE_USERS=20000 ./build/bench/bench_executor
//
// The process executor ships dataset indices out and finalized groups
// back while workers re-read their shard and reconcile slices from the
// shared glovebin file, so its overhead is the wire protocol plus
// per-worker io — the table shows what that costs (or saves, on
// multi-core machines) relative to the shared-memory pool.  The
// "identical" column is deterministic and doubles as the baseline's parity
// record: it must read "yes" on every machine.

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/bench_common.hpp"
#include "glove/api/cli.hpp"
#include "glove/cdr/binio.hpp"
#include "glove/shard/config.hpp"
#include "glove/stats/table.hpp"

namespace {

using namespace glove;
namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

struct Measured {
  RunReport report;
  double seconds = 0.0;
  std::string output;
};

Measured run(const Engine& engine, const std::string& input,
             const std::string& output, shard::ExecutorKind executor,
             std::size_t workers) {
  api::RunConfig config;
  config.strategy = api::kStrategySharded;
  config.k = 2;
  config.sharded.max_shard_users = 500;
  config.sharded.executor = executor;
  config.sharded.workers = workers;

  const auto source = api::open_dataset_source(input);
  const auto sink = api::make_dataset_sink(output, "csv");
  const auto start = std::chrono::steady_clock::now();
  Measured measured;
  measured.report =
      api::run_streaming_or_exit(engine, *source, *sink, config);
  measured.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  measured.output = read_file(output);
  return measured;
}

}  // namespace

int main() {
  const Engine engine;
  const bench::Scale scale = bench::resolve_scale(/*default_users=*/20'000,
                                                  /*default_days=*/1.0);
  const cdr::FingerprintDataset data = bench::make_civ(scale);
  bench::print_banner("shard executors (inprocess vs process, k=2)", data);

  const fs::path work =
      fs::temp_directory_path() /
      ("glove_bench_executor-" + std::to_string(scale.users));
  fs::create_directories(work);
  const std::string input = (work / "dataset.glovebin").string();
  cdr::write_dataset_glovebin_file(input, data);

  struct Row {
    std::string label;
    shard::ExecutorKind executor;
    std::size_t workers;
  };
  const Row rows[] = {
      {"inprocess", shard::ExecutorKind::kInProcess, 0},
      {"process x1", shard::ExecutorKind::kProcess, 1},
      {"process x2", shard::ExecutorKind::kProcess, 2},
      {"process x4", shard::ExecutorKind::kProcess, 4},
  };

  stats::TextTable table{"Streaming sharded run by executor"};
  table.header({"executor", "seconds", "speedup", "fingerprints/s", "groups",
                "identical"});
  std::string reference;
  double baseline = 0.0;
  bool all_identical = true;
  for (const Row& row : rows) {
    const std::string output =
        (work / ("anon-" + std::to_string(&row - rows) + ".csv")).string();
    const Measured m =
        run(engine, input, output, row.executor, row.workers);
    if (reference.empty()) {
      reference = m.output;
      baseline = m.seconds;
    }
    const bool identical = m.output == reference;
    all_identical = all_identical && identical;
    table.row({row.label, stats::fmt(m.seconds, 2),
               stats::fmt(baseline / m.seconds, 2) + "x",
               std::to_string(static_cast<std::uint64_t>(
                   static_cast<double>(data.size()) / m.seconds)),
               std::to_string(m.report.counters.output_groups),
               identical ? "yes" : "NO"});
    fs::remove(output);
  }
  table.print(std::cout);
  std::cout << "\n  outputs byte-identical across executors: "
            << (all_identical ? "yes" : "NO") << "\n";

  std::error_code ec;
  fs::remove_all(work, ec);
  if (!all_identical) {
    std::cerr << "ERROR: executor outputs diverged\n";
    return 1;
  }
  return 0;
}
