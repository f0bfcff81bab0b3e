// glove_shard_worker: the worker half of the process ShardExecutor.  A
// coordinator forks this daemon with a connected socketpair fd, sends one
// kHello naming the shared dataset file, and then streams kRunShard
// requests; the worker re-reads each shard slice through the regular
// streaming front door (CSV or glovebin, auto-detected), runs the exact
// in-process GLOVE pipeline on it, and replies with the finalized groups,
// cost stats, timing, and its obs counter deltas.  SIGUSR1 is the
// cancellation signal: the GLOVE loops poll it and the aborted job comes
// back as a kError("operation cancelled") reply.
//
// Fault injection (tests only): GLOVE_SHARD_WORKER_FAULT=crash-after-jobs=N
// makes the worker die with _exit(134) when job N+1 arrives, after noting
// the fact on stderr — exercising the coordinator's crash-tail reporting.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "glove/api/source.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/shard/exec/proto.hpp"
#include "glove/util/hooks.hpp"

namespace {

using namespace glove;
namespace exec = glove::shard::exec;

using Clock = std::chrono::steady_clock;

/// Shared cancellation flag set from the SIGUSR1 handler (an atomic
/// store, which is async-signal-safe); every hook-aware loop polls it.
util::CancellationToken& cancel_token() {
  static util::CancellationToken token;
  return token;
}

extern "C" void on_sigusr1(int) { cancel_token().request_cancel(); }

/// Materializes the named slice of the source in id-list order — the
/// worker-side mirror of the coordinator's per-batch materialize pass.
/// Index-capable sources fetch exactly the blocks the slice needs; plain
/// streams are re-read whole, keeping only the slice.
std::vector<cdr::Fingerprint> materialize_slice(
    api::DatasetSource& source, const std::vector<std::uint32_t>& ids,
    std::uint64_t expected, const util::RunHooks& hooks) {
  std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id;
  slot_of_id.reserve(ids.size());
  std::uint32_t next_slot = 0;
  for (const std::uint32_t id : ids) slot_of_id[id] = next_slot++;
  std::vector<cdr::Fingerprint> store(ids.size());
  if (source.fetch(slot_of_id, store).has_value()) return store;

  source.rewind();
  cdr::Fingerprint fp;
  std::uint64_t index = 0;
  while (source.next(fp)) {
    if ((index & 0x3FFu) == 0) hooks.throw_if_cancelled();
    if (index < expected) {
      const auto it = slot_of_id.find(static_cast<std::uint32_t>(index));
      if (it != slot_of_id.end()) store[it->second] = std::move(fp);
    }
    ++index;
    if (index > expected) break;
  }
  if (index != expected) {
    throw std::runtime_error{
        "worker re-read yielded a different number of fingerprints (got " +
        std::to_string(index) + (index > expected ? "+" : "") +
        ", coordinator planned " + std::to_string(expected) + ")"};
  }
  return store;
}

int worker_loop(int fd) {
  // Fault injection knob; see the file comment.
  std::optional<std::uint64_t> crash_after_jobs;
  if (const char* fault = std::getenv("GLOVE_SHARD_WORKER_FAULT");
      fault != nullptr && *fault != '\0') {
    constexpr const char* kPrefix = "crash-after-jobs=";
    if (std::strncmp(fault, kPrefix, std::strlen(kPrefix)) == 0) {
      crash_after_jobs = std::strtoull(fault + std::strlen(kPrefix),
                                       nullptr, 10);
    }
  }

  std::unique_ptr<api::DatasetSource> source;
  exec::HelloRequest hello;
  util::RunHooks hooks;
  hooks.cancel = cancel_token();
  std::uint64_t jobs_done = 0;

  exec::Frame frame;
  while (exec::read_frame(fd, frame)) {
    switch (frame.type) {
      case exec::FrameType::kHello: {
        try {
          hello = exec::decode_hello(frame.payload);
          source = api::open_dataset_source(hello.source_path);
          source->bind_cancel(hooks.cancel);
          exec::write_frame(fd, exec::FrameType::kHelloAck, {});
        } catch (const std::exception& e) {
          exec::write_frame(fd, exec::FrameType::kError,
                            exec::encode_error(e.what()));
          return 1;
        }
        break;
      }
      case exec::FrameType::kRunShard: {
        if (crash_after_jobs.has_value() && jobs_done >= *crash_after_jobs) {
          std::cerr << "fault injection: crashing instead of running job "
                    << (jobs_done + 1) << "\n";
          std::cerr.flush();
          std::_Exit(134);
        }
        try {
          if (source == nullptr) {
            throw std::runtime_error{"kRunShard before kHello"};
          }
          const exec::RunShardRequest request =
              exec::decode_run_shard(frame.payload);
          const auto start = Clock::now();
          const obs::MetricsSnapshot before = obs::snapshot_metrics();
          std::vector<cdr::Fingerprint> inputs = materialize_slice(
              *source, request.member_ids, hello.expected_fingerprints,
              hooks);
          core::GloveResult run = core::anonymize(
              cdr::FingerprintDataset{std::move(inputs)}, hello.glove, hooks);
          exec::ShardDoneReply reply;
          reply.shard = request.shard;
          reply.merges = run.stats.merges;
          reply.deleted_samples = run.stats.deleted_samples;
          reply.discarded_fingerprints = run.stats.discarded_fingerprints;
          reply.stretch_evaluations = run.stats.stretch_evaluations;
          reply.init_seconds = run.stats.init_seconds;
          reply.merge_seconds = run.stats.merge_seconds;
          reply.total_seconds =
              std::chrono::duration<double>(Clock::now() - start).count();
          reply.groups = std::move(run.anonymized.mutable_fingerprints());
          reply.counter_deltas =
              obs::counter_delta(before, obs::snapshot_metrics());
          exec::write_frame(fd, exec::FrameType::kShardDone,
                            exec::encode_shard_done(reply));
          ++jobs_done;
        } catch (const std::exception& e) {
          exec::write_frame(fd, exec::FrameType::kError,
                            exec::encode_error(e.what()));
        }
        break;
      }
      case exec::FrameType::kShutdown:
        return 0;
      default: {
        exec::write_frame(
            fd, exec::FrameType::kError,
            exec::encode_error("worker received an unexpected frame type"));
        return 1;
      }
    }
  }
  // EOF: the coordinator closed its end (normal teardown path).
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int fd = -1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--socket-fd=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      fd = std::atoi(argv[i] + std::strlen(kFlag));
    }
  }
  if (fd < 0) {
    std::cerr << "usage: glove_shard_worker --socket-fd=N\n"
              << "(spawned by the process ShardExecutor, not by hand)\n";
    return 2;
  }
  std::signal(SIGUSR1, on_sigusr1);
  try {
    return worker_loop(fd);
  } catch (const std::exception& e) {
    std::cerr << "glove_shard_worker: " << e.what() << "\n";
    return 1;
  }
}
