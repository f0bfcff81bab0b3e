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
  /// Runs every job through core::anonymize_pruned with `glove` on a pool
  /// of `workers` threads (resolved by make_shard_executor).
  InProcessExecutor(const core::GloveConfig& glove, std::size_t workers);

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "inprocess";
  }
  [[nodiscard]] std::size_t workers() const noexcept override {
    return scheduler_.size();
  }
  [[nodiscard]] bool reads_source() const noexcept override { return false; }

  std::vector<ShardResult> run_batch(std::vector<ShardJob> jobs,
                                     const ShardResultFn& on_result,
                                     const util::RunHooks& hooks) override;

 private:
  core::GloveConfig glove_;
  util::ThreadPool scheduler_;
};

}  // namespace glove::shard::exec

#endif  // GLOVE_SHARD_EXEC_INPROCESS_HPP
