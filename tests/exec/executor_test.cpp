// End-to-end guarantees of the pluggable shard-execution boundary: the
// process executor (forked glove_shard_worker daemons re-reading shard and
// reconcile slices from the shared file) produces byte-identical output to
// the in-process thread pool across worker counts and both dataset
// formats, surfaces worker crashes as typed errors carrying the worker's
// stderr tail (no hang, no orphan processes, no leaked spill files), and
// rejects configurations it cannot serve (in-memory sources).  The
// in-process pool returns each job's groups in job order whatever order
// it starts the jobs in, and its jobs hand large GLOVE refinement batches
// on to the shared thread pool.
//
// The worker binary path arrives via the GLOVE_SHARD_WORKER_BIN compile
// definition, so the suite exercises the same discovery override
// operators use.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <unistd.h>
#endif

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/shard/config.hpp"
#include "glove/shard/exec/inprocess.hpp"

namespace glove::api {
namespace {

namespace fs = std::filesystem;

RunConfig sharded_config(shard::ExecutorKind executor, std::size_t workers) {
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  config.sharded.border = shard::BorderPolicy::kHalo;
  config.sharded.executor = executor;
  config.sharded.workers = workers;
  config.sharded.worker_binary = GLOVE_SHARD_WORKER_BIN;
  return config;
}

/// Streams `path` through the Engine into a MemorySink; returns the CSV
/// spelling of the output under a fixed name so runs over differently
/// named inputs stay comparable.
std::string run_to_csv(const Engine& engine, const RunConfig& config,
                       const std::string& path,
                       RunReport* report_out = nullptr) {
  const auto source = open_dataset_source(path);
  MemorySink sink;
  auto result = engine.run(*source, sink, config);
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  if (!result.ok()) return {};
  if (report_out != nullptr) *report_out = std::move(result).value();
  cdr::FingerprintDataset out = std::move(sink).take_dataset();
  out.set_name("parity");
  return test::dataset_to_csv(out);
}

/// Stderr spill files the coordinator leaves behind would name this
/// process's pid; a clean teardown removes every one.
std::size_t leaked_spill_files() {
  std::size_t count = 0;
#if defined(__unix__)
  const std::string prefix =
      "glove_shard_worker-" + std::to_string(::getpid()) + "-";
  for (const auto& entry : fs::directory_iterator(fs::temp_directory_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
#endif
  return count;
}

/// Live child processes of this test (Linux: scan /proc for our ppid) —
/// zero once every worker daemon has been reaped.
std::size_t live_child_processes() {
  std::size_t count = 0;
#if defined(__linux__)
  for (const auto& entry : fs::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream stat{entry.path() / "stat"};
    std::string token;
    // Fields: pid (comm) state ppid ...; comm may hold spaces but the
    // worker's never does.
    long ppid = -1;
    for (int i = 0; i < 4 && stat >> token; ++i) {
      if (i == 3) ppid = std::atol(token.c_str());
    }
    if (ppid == static_cast<long>(::getpid())) ++count;
  }
#endif
  return count;
}

TEST(ShardExecutor, ProcessMatchesInProcessAcrossWorkersAndFormats) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  const std::string csv = dir.file("data.csv");
  const std::string bin = dir.file("data.glovebin");
  cdr::write_dataset_file(csv, data);
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/8);

  const Engine engine;
  for (const std::string& input : {csv, bin}) {
    const std::string reference = run_to_csv(
        engine, sharded_config(shard::ExecutorKind::kInProcess, 0), input);
    ASSERT_FALSE(reference.empty());
    for (const std::size_t workers : {1u, 2u, 4u}) {
      RunReport report;
      const std::string actual = run_to_csv(
          engine, sharded_config(shard::ExecutorKind::kProcess, workers),
          input, &report);
      const std::string label =
          fs::path(input).extension().string() + " workers=" +
          std::to_string(workers);
      EXPECT_EQ(actual, reference) << label;
      EXPECT_EQ(report.exec_kind, "process") << label;
      EXPECT_EQ(report.exec_workers, workers) << label;
      // Deterministic round-robin accounting: every job, fingerprint and
      // group is attributed to exactly one worker — the shard jobs plus
      // the reconcile chunks, which run on the same workers.
      ASSERT_EQ(report.exec_worker_stats.size(), workers) << label;
      std::uint64_t jobs = 0;
      std::uint64_t fingerprints = 0;
      std::uint64_t groups = 0;
      for (const ExecWorkerRow& row : report.exec_worker_stats) {
        jobs += row.jobs;
        fingerprints += row.fingerprints;
        groups += row.groups;
      }
      std::uint64_t shard_jobs = 0;
      std::uint64_t shard_inputs = 0;
      std::uint64_t shard_groups = 0;
      for (const ShardTimingRow& row : report.shard_timings) {
        shard_jobs += row.input_fingerprints > 0 ? 1 : 0;
        shard_inputs += row.input_fingerprints;
        shard_groups += row.output_groups;
      }
      // Every fingerprint here is a single user, so no deferred leftover
      // passes through and none is left for the policy tail: each one
      // runs in a reconcile chunk.
      const auto reconciled = static_cast<std::uint64_t>(
          find_metric(report, "reconciled_groups"));
      const auto deferred = static_cast<std::uint64_t>(
          find_metric(report, "deferred_fingerprints"));
      std::uint64_t chunks = 0;
      for (const auto& [name, value] : report.obs_counters) {
        if (name == "stream.reconcile_chunks") chunks = value;
      }
      ASSERT_GT(reconciled, 0u) << label;
      EXPECT_GT(chunks, 0u) << label;
      EXPECT_EQ(jobs, shard_jobs + chunks) << label;
      EXPECT_EQ(fingerprints, shard_inputs + deferred) << label;
      EXPECT_EQ(groups, shard_groups + reconciled) << label;
    }
  }
  EXPECT_EQ(live_child_processes(), 0u);
  EXPECT_EQ(leaked_spill_files(), 0u);
}

TEST(ShardExecutor, ProcessRunMatchesTheAbsorbedTailGolden) {
  // Fewer than k deferred sub-k leftovers under kMergeIntoNearest: the
  // tail is absorbed into the nearest finalized group, so every group is
  // held until the run ends.  The process executor must publish the same
  // blessed bytes as the in-process streams (tests/shard/stream_test).
  const test::TempDir dir;
  const std::string csv = dir.file("data.csv");
  cdr::write_dataset_file(csv, test::small_synth_dataset(40));

  RunConfig config = sharded_config(shard::ExecutorKind::kProcess, 2);
  config.k = 4;
  config.sharded.halo_m = 500.0;
  const Engine engine;
  const auto source = open_dataset_source(csv);
  MemorySink sink;
  const auto result = engine.run(*source, sink, config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_GT(find_metric(result.value(), "absorbed_leftovers"), 0.0);
  cdr::FingerprintDataset out = std::move(sink).take_dataset();
  out.set_name("civ-like-sharded-k4");
  test::expect_matches_golden("sharded_absorb_synth40_k4.csv",
                              test::dataset_to_csv(out));
  EXPECT_EQ(live_child_processes(), 0u);
}

TEST(ShardExecutor, InProcessReportsItsKindInTheRunReport) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  const std::string csv = dir.file("data.csv");
  cdr::write_dataset_file(csv, data);

  const Engine engine;
  RunReport report;
  (void)run_to_csv(engine, sharded_config(shard::ExecutorKind::kInProcess, 0),
                   csv, &report);
  EXPECT_EQ(report.exec_kind, "inprocess");
  EXPECT_GE(report.exec_workers, 1u);
  EXPECT_TRUE(report.exec_worker_stats.empty());
}

TEST(ShardExecutor, InProcessResultsKeepJobOrderWhateverTheStartOrder) {
  // The in-process executor starts the largest jobs first and, over a
  // resident dataset, copies each job's members itself.  Neither may
  // change a job's groups or the slot its result lands in.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  core::GloveConfig glove;
  glove.k = 2;
  // Slices of rising size, so largest-first starts them in reverse.
  std::vector<std::vector<std::uint32_t>> slices;
  std::uint32_t next = 0;
  for (const std::uint32_t size : {4u, 8u, 12u, 16u}) {
    std::vector<std::uint32_t>& ids = slices.emplace_back();
    for (std::uint32_t i = 0; i < size; ++i) ids.push_back(next++);
  }
  const auto slice_of = [&](std::size_t s) {
    std::vector<cdr::Fingerprint> inputs;
    for (const std::uint32_t id : slices[s]) inputs.push_back(data[id]);
    return cdr::FingerprintDataset{std::move(inputs)};
  };

  for (const cdr::FingerprintDataset* resident : {
           static_cast<const cdr::FingerprintDataset*>(nullptr), &data}) {
    shard::exec::InProcessExecutor executor{glove, 2, resident};
    EXPECT_EQ(executor.reads_source(), resident != nullptr);
    std::vector<shard::exec::ShardJob> jobs;
    for (std::size_t s = 0; s < slices.size(); ++s) {
      shard::exec::ShardJob& job = jobs.emplace_back();
      job.shard = s;
      job.member_ids = &slices[s];
      if (resident == nullptr) {
        job.inputs = std::move(slice_of(s).mutable_fingerprints());
      }
    }
    std::vector<shard::exec::ShardResult> results = executor.run_batch(
        std::move(jobs), [](const shard::exec::ShardResult&) {}, {});
    ASSERT_EQ(results.size(), slices.size());
    for (std::size_t s = 0; s < slices.size(); ++s) {
      EXPECT_EQ(results[s].timing.shard, s);
      EXPECT_EQ(results[s].timing.input_fingerprints, slices[s].size());
      const cdr::FingerprintDataset expected =
          core::anonymize(slice_of(s), glove).anonymized;
      EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{
                    std::move(results[s].groups), expected.name()}),
                test::dataset_to_csv(expected))
          << "job " << s << (resident != nullptr ? " (resident)" : "");
    }
  }
}

TEST(ShardExecutor, InProcessJobsRefineLargeBatchesOnTheSharedPool) {
  // A job's GLOVE run is a task of the executor's own pool, and it hands
  // refinement batches of 65,536 sample pairs or more on to the shared
  // pool.  In dense slices every bound is 0, so every pair is refined, and
  // at k = 2 every candidate pair joins two 48-sample inputs (m_a * m_b =
  // 2,304): a mean batch of 29 or more entries means that some batch
  // crossed to the shared pool.  The groups must still be those of a
  // direct core::anonymize call on each slice.
  const cdr::FingerprintDataset data = test::dense_dataset(80, 48, 5);
  core::GloveConfig glove;
  glove.k = 2;
  std::vector<std::vector<std::uint32_t>> slices(2);
  for (std::uint32_t id = 0; id < data.size(); ++id) {
    slices[id % 2].push_back(id);
  }
  shard::exec::InProcessExecutor executor{glove, 2, &data};
  std::vector<shard::exec::ShardJob> jobs;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    shard::exec::ShardJob& job = jobs.emplace_back();
    job.shard = s;
    job.member_ids = &slices[s];
  }
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  std::vector<shard::exec::ShardResult> results = executor.run_batch(
      std::move(jobs), [](const shard::exec::ShardResult&) {}, {});
  const obs::MetricsSnapshot after = obs::snapshot_metrics();
  EXPECT_GE(after.counter_value("core.heap.refined") -
                before.counter_value("core.heap.refined"),
            29 * (after.counter_value("core.heap.refine_batches") -
                  before.counter_value("core.heap.refine_batches")));
  ASSERT_EQ(results.size(), slices.size());
  for (std::size_t s = 0; s < slices.size(); ++s) {
    std::vector<cdr::Fingerprint> inputs;
    for (const std::uint32_t id : slices[s]) inputs.push_back(data[id]);
    const cdr::FingerprintDataset expected =
        core::anonymize(cdr::FingerprintDataset{std::move(inputs)}, glove)
            .anonymized;
    EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{
                  std::move(results[s].groups), expected.name()}),
              test::dataset_to_csv(expected))
        << "job " << s;
  }
}

TEST(ShardExecutor, ProcessObsCountersFoldIntoTheCoordinatorReport) {
  // The core.heap.* counters tick inside core::anonymize — in process
  // mode that is the *worker's* address space, so their presence in the
  // coordinator's report proves the delta fold-back works.
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::string csv = dir.file("data.csv");
  cdr::write_dataset_file(csv, data);

  const Engine engine;
  RunReport in_proc;
  RunReport proc;
  (void)run_to_csv(engine, sharded_config(shard::ExecutorKind::kInProcess, 0),
                   csv, &in_proc);
  (void)run_to_csv(engine, sharded_config(shard::ExecutorKind::kProcess, 2),
                   csv, &proc);
  const auto counter = [](const RunReport& report, const std::string& name) {
    for (const auto& [key, value] : report.obs_counters) {
      if (key == name) return value;
    }
    return std::uint64_t{0};
  };
  for (const char* name :
       {"core.heap.seeded", "core.heap.popped", "stream.shards_run"}) {
    EXPECT_GT(counter(proc, name), 0u) << name;
    EXPECT_EQ(counter(proc, name), counter(in_proc, name)) << name;
  }
  EXPECT_GT(counter(proc, "exec.workers_spawned"), 0u);
  EXPECT_GT(counter(proc, "exec.jobs_dispatched"), 0u);
}

TEST(ShardExecutor, WorkerCrashSurfacesTypedErrorWithStderrTail) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::string csv = dir.file("data.csv");
  cdr::write_dataset_file(csv, data);

  ::setenv("GLOVE_SHARD_WORKER_FAULT", "crash-after-jobs=0", 1);
  const Engine engine;
  const auto source = open_dataset_source(csv);
  MemorySink sink;
  const auto result = engine.run(
      *source, sink, sharded_config(shard::ExecutorKind::kProcess, 2));
  ::unsetenv("GLOVE_SHARD_WORKER_FAULT");

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInternal);
  // The error carries the crashed worker's stderr tail, so the fault
  // marker the worker printed before dying must be quoted verbatim.
  EXPECT_NE(result.error().message.find("fault injection"), std::string::npos)
      << result.error().message;
  // Clean teardown despite the crash: every daemon reaped, every stderr
  // spill file unlinked.
  EXPECT_EQ(live_child_processes(), 0u);
  EXPECT_EQ(leaked_spill_files(), 0u);
}

TEST(ShardExecutor, ProcessExecutorRejectsInMemorySources) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  const Engine engine;
  MemorySource source{data};
  MemorySink sink;
  const auto result = engine.run(
      source, sink, sharded_config(shard::ExecutorKind::kProcess, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
  EXPECT_NE(result.error().message.find("file-backed"), std::string::npos)
      << result.error().message;
}

TEST(ShardExecutor, MissingWorkerBinaryFailsFast) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  const std::string csv = dir.file("data.csv");
  cdr::write_dataset_file(csv, data);

  RunConfig config = sharded_config(shard::ExecutorKind::kProcess, 1);
  config.sharded.worker_binary = dir.file("no_such_worker");
  const Engine engine;
  const auto source = open_dataset_source(csv);
  MemorySink sink;
  const auto result = engine.run(*source, sink, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidConfig);
}

}  // namespace
}  // namespace glove::api
