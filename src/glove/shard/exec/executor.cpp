#include "glove/shard/exec/executor.hpp"

#include <algorithm>
#include <stdexcept>

#include "glove/shard/exec/inprocess.hpp"
#include "glove/shard/exec/process_pool.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard::exec {

std::string_view executor_kind_name(ExecutorKind kind) noexcept {
  switch (kind) {
    case ExecutorKind::kInProcess:
      return "inprocess";
    case ExecutorKind::kProcess:
      return "process";
  }
  return "unknown";
}

std::unique_ptr<ShardExecutor> make_shard_executor(
    const ShardConfig& config, const std::optional<std::string>& source_path,
    const cdr::FingerprintDataset* resident, std::uint64_t total_fingerprints,
    std::size_t job_count) {
  // Never more workers than jobs, so none is idle by construction.
  std::size_t workers = config.workers;
  if (workers == 0) workers = util::ThreadPool::shared().size();
  workers = std::min(std::max<std::size_t>(workers, 1),
                     std::max<std::size_t>(job_count, 1));
  switch (config.executor) {
    case ExecutorKind::kInProcess:
      return std::make_unique<InProcessExecutor>(config.glove, workers,
                                                 resident);
    case ExecutorKind::kProcess:
      if (!source_path.has_value()) {
        throw std::invalid_argument{
            "--executor=process requires a file-backed dataset source (csv "
            "or glovebin): workers re-read their shard slices from the "
            "shared file, which an in-memory source does not have"};
      }
      return std::make_unique<ProcessPoolExecutor>(
          config, *source_path, total_fingerprints, workers);
  }
  throw std::invalid_argument{"unknown shard executor kind"};
}

}  // namespace glove::shard::exec
