// Cooperative observability for long-running anonymization loops: a
// progress callback plus a thread-safe cancellation token.  The hot loops
// (GLOVE's greedy merge, the k-gap matrix build, W4M clustering) poll the
// token between units of work and abort by throwing CancelledError, which
// the glove::api::Engine boundary converts into a typed error — no partial
// output ever escapes a cancelled run.

#ifndef GLOVE_UTIL_HOOKS_HPP
#define GLOVE_UTIL_HOOKS_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

namespace glove::util {

/// Copyable handle to a shared cancellation flag.  `request_cancel()` may
/// be called from any thread (including a progress callback); workers
/// observe it at their next poll point.
class CancellationToken {
 public:
  CancellationToken() : state_{std::make_shared<std::atomic<bool>>(false)} {}

  void request_cancel() const noexcept {
    state_->store(true, std::memory_order_release);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return state_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Thrown by hook-aware loops when their token is cancelled.
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error{"operation cancelled"} {}
};

/// Thrown by the code that consumes a dataset when the *data* (not the
/// configuration) is unusable: a malformed record, too few fingerprints.
/// The glove::api::Engine maps it to ErrorCode::kInvalidDataset (plain
/// std::invalid_argument stays kInvalidConfig).
class DatasetError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Throws DatasetError when a dataset of `fingerprints` is smaller than k.
inline void check_dataset_size(std::uint64_t fingerprints, std::uint64_t k) {
  if (fingerprints < k) {
    throw DatasetError{"dataset holds " + std::to_string(fingerprints) +
                       " fingerprints, fewer than the target anonymity level " +
                       std::to_string(k)};
  }
}

/// Progress notification: `done` out of `total` abstract work units.  Both
/// are loop-specific (pair evaluations, users closed, chunks finished);
/// only the ratio and the monotonicity of `done` are meaningful.
using ProgressFn = std::function<void(std::uint64_t done, std::uint64_t total)>;

/// Hooks threaded through the hot loops.  Default-constructed hooks are
/// inert (no progress reporting, never cancelled).
struct RunHooks {
  ProgressFn progress;
  std::optional<CancellationToken> cancel;

  /// Reports progress when a callback is installed.
  void report(std::uint64_t done, std::uint64_t total) const {
    if (progress) progress(done, total);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return cancel.has_value() && cancel->cancelled();
  }

  /// Poll point: aborts the enclosing loop via CancelledError.
  void throw_if_cancelled() const {
    if (cancelled()) throw CancelledError{};
  }
};

}  // namespace glove::util

#endif  // GLOVE_UTIL_HOOKS_HPP
