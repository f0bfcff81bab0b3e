// The multi-process ShardExecutor: a coordinator that forks long-lived
// glove_shard_worker daemons, speaks the exec/proto framed protocol over
// AF_UNIX socketpairs, and folds per-worker results and obs counter
// deltas back deterministically.  Workers re-read their shard slices from
// the shared source file, so the coordinator never ships fingerprints —
// only dataset indices out and finalized groups back.

#ifndef GLOVE_SHARD_EXEC_PROCESS_POOL_HPP
#define GLOVE_SHARD_EXEC_PROCESS_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "glove/shard/exec/executor.hpp"
#include "glove/shard/exec/proto.hpp"

namespace glove::shard::exec {

/// Resolves the glove_shard_worker binary: `configured` when non-empty,
/// else $GLOVE_SHARD_WORKER_BIN, else well-known build-tree locations
/// relative to the running executable.  Throws std::invalid_argument when
/// nothing resolves to an existing file.
[[nodiscard]] std::string resolve_worker_binary(const std::string& configured);

class ProcessPoolExecutor final : public ShardExecutor {
 public:
  /// Spawns `workers` worker daemons (resolved by make_shard_executor)
  /// and completes the hello handshake; throws on any spawn or handshake
  /// failure (POSIX-only: other platforms throw std::invalid_argument
  /// immediately).
  ProcessPoolExecutor(const ShardConfig& config, std::string source_path,
                      std::uint64_t total_fingerprints, std::size_t workers);
  ~ProcessPoolExecutor() override;

  ProcessPoolExecutor(const ProcessPoolExecutor&) = delete;
  ProcessPoolExecutor& operator=(const ProcessPoolExecutor&) = delete;

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "process";
  }
  [[nodiscard]] std::size_t workers() const noexcept override {
    return workers_.size();
  }
  [[nodiscard]] bool reads_source() const noexcept override { return true; }

  std::vector<ShardResult> run_batch(std::vector<ShardJob> jobs,
                                     const ShardResultFn& on_result,
                                     const util::RunHooks& hooks) override;

  [[nodiscard]] std::vector<ExecWorkerStats> worker_stats() const override;

  /// Worker process ids, for fault-injection tests.
  [[nodiscard]] std::vector<long> worker_pids() const;

 private:
  struct Worker {
    int fd = -1;
    long pid = -1;
    std::string stderr_path;
    ExecWorkerStats stats;
  };

  /// Jobs a run_batch round-robined onto one worker; at most one is in
  /// flight per worker so a blocked reply write can never deadlock
  /// against a blocked request write.
  struct WorkerQueue {
    std::vector<std::size_t> jobs;
    std::size_t next = 0;
    bool in_flight = false;
  };

  void spawn_worker(std::size_t index);
  void send_job(std::size_t worker, const ShardJob& job);
  [[noreturn]] void fail_worker(std::size_t worker, const std::string& what);
  [[nodiscard]] std::string stderr_tail(std::size_t worker) const;
  void shutdown() noexcept;

  std::string worker_binary_;
  HelloRequest hello_;
  std::vector<Worker> workers_;
  std::size_t next_worker_ = 0;
};

}  // namespace glove::shard::exec

#endif  // GLOVE_SHARD_EXEC_PROCESS_POOL_HPP
