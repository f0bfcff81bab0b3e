// ServeDaemon: the glove-serve run loop.
//
// Wires the pieces together — EventIngestor (producer thread) -> bounded
// EventQueue -> WindowAccumulator -> SnapshotPublisher — plus the
// optional AF_UNIX admin surface, and owns the graceful-drain state
// machine: a drain request (admin `drain` command, SIGTERM/SIGINT via
// install_drain_signal_handlers, or plain end-of-file in batch mode)
// stops the tail reader, drains the queue, closes the final partial
// window, publishes a last snapshot when new users are pending, and
// returns with exit code 0.
//
// Determinism: the queue is FIFO and the single consumer folds events in
// arrival (= file) order, windows close on event-time watermarks, and
// every strategy is byte-stable across worker counts — so for a fixed
// event stream the published snapshot bytes are identical across queue
// capacities, poll timings, and worker counts.

#ifndef GLOVE_SERVE_DAEMON_HPP
#define GLOVE_SERVE_DAEMON_HPP

#include <atomic>
#include <cstdint>
#include <string>

#include "glove/api/engine.hpp"
#include "glove/serve/config.hpp"
#include "glove/serve/queue.hpp"

namespace glove::serve {

/// What a completed (or failed) daemon run amounts to.
struct ServeSummary {
  int exit_code = 0;  ///< 0 on clean drain, 1 on error
  std::string error;  ///< non-empty when exit_code != 0
  std::uint64_t events_ingested = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t epochs_published = 0;
  std::string last_snapshot_path;  ///< "" when nothing was published
};

class ServeDaemon {
 public:
  explicit ServeDaemon(ServeConfig config);

  /// Runs ingest -> window -> publish until the stream ends or a drain is
  /// requested.  Call once.  Configuration and I/O errors come back in
  /// the summary (exit_code 1), not as exceptions.
  ServeSummary run();

  /// Requests a graceful drain.  Async-signal-safe (one relaxed atomic
  /// store) and callable from any thread; the run loop notices within
  /// its queue-poll timeout.
  void request_drain() noexcept {
    drain_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool drain_requested() const noexcept {
    return drain_.load(std::memory_order_relaxed);
  }

  /// One-line status for the admin `health` command.  Thread-safe.
  [[nodiscard]] std::string health_line() const;

 private:
  ServeSummary run_pipeline();

  ServeConfig config_;
  api::Engine engine_;
  EventQueue queue_;
  std::atomic<bool> drain_{false};
  std::atomic<std::uint64_t> windows_closed_{0};
  std::atomic<std::uint64_t> epochs_published_{0};
  std::atomic<std::uint64_t> events_folded_{0};
};

/// Installs SIGTERM/SIGINT handlers that request a graceful drain of
/// `daemon` (which must outlive the process's use of the handlers).  The
/// handler body is one atomic store — async-signal-safe.  Installing for
/// a second daemon retargets the handlers.
void install_drain_signal_handlers(ServeDaemon& daemon);

}  // namespace glove::serve

#endif  // GLOVE_SERVE_DAEMON_HPP
