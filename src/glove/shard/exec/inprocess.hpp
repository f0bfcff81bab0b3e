// The default ShardExecutor: runs shard and reconcile jobs on an
// in-process thread pool, exactly the execution path the streaming backend
// always had (and byte-identical to it).

#ifndef GLOVE_SHARD_EXEC_INPROCESS_HPP
#define GLOVE_SHARD_EXEC_INPROCESS_HPP

#include <cstddef>
#include <vector>

#include "glove/shard/exec/executor.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard::exec {

class InProcessExecutor final : public ShardExecutor {
 public:
  /// Runs every job through core::anonymize with `glove` on a pool of
  /// `workers` threads (resolved by make_shard_executor).  With a
  /// `resident` dataset (which must outlive the executor) each job copies
  /// its members from it when it starts, so a batch holds only the inputs
  /// of the jobs running.
  InProcessExecutor(const core::GloveConfig& glove, std::size_t workers,
                    const cdr::FingerprintDataset* resident = nullptr);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "inprocess";
  }
  [[nodiscard]] std::size_t workers() const noexcept override {
    return scheduler_.size();
  }
  [[nodiscard]] bool reads_source() const noexcept override {
    return resident_ != nullptr;
  }

  std::vector<ShardResult> run_batch(std::vector<ShardJob> jobs,
                                     const ShardResultFn& on_result,
                                     const util::RunHooks& hooks) override;

 private:
  core::GloveConfig glove_;
  const cdr::FingerprintDataset* resident_;
  util::ThreadPool scheduler_;
};

}  // namespace glove::shard::exec

#endif  // GLOVE_SHARD_EXEC_INPROCESS_HPP
