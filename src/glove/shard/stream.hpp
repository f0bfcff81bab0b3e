// glove::shard — the spatially-sharded anonymization backend, streamed:
// the run boundary for datasets larger than RAM.
//
//   tile -> plan -> run shard jobs -> reconcile borders
//
// The quadratic costs of GLOVE (the |M|^2/2 candidate matrix and the
// greedy merge loop, paper Sec. 6.3) are confined to spatial shards of
// bounded size, so populations far beyond the single-matrix limit become
// tractable.  The output is k-anonymous as a whole and byte-stable across
// worker counts, executors and budgets.
//
//   pass 1  — scan the stream once, keeping only per-fingerprint bounding
//             geometry (+ group size): enough to tile, plan shards, split
//             borders and plan the reconciliation of the deferred border
//             leftovers without ever holding the samples;
//   pass 2+ — one ordered unit list (the shard jobs, then the reconcile
//             plan's pass-throughs, GLOVE chunks and policy tail) runs in
//             batches of at most max_shard_users x workers fingerprints.
//             Each batch rewinds the stream once, materializing only its
//             own members, and hands its GLOVE jobs to the ShardExecutor;
//             groups leave in unit order as each batch completes.  A
//             reconcile unit never joins a shard batch, so the two phases
//             stay sequential.  A materialized() stream is never rewound:
//             its whole unit list is one batch, the executor copies each
//             job's members as the job starts, and reconcile chunks run
//             beside the shard jobs.
//
// Peak sample memory is O(largest batch) instead of O(dataset) or
// O(borders).  The rare absorb tail (fewer than k sub-k leftovers under
// kMergeIntoNearest) may rewrite any finalized group, so that run holds
// its groups back until the tail is absorbed.

#ifndef GLOVE_SHARD_STREAM_HPP
#define GLOVE_SHARD_STREAM_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "glove/cdr/binio.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/shard/config.hpp"
#include "glove/shard/exec/executor.hpp"
#include "glove/util/hooks.hpp"

namespace glove::shard {

/// Pull-based fingerprint stream the sharded backend consumes twice or
/// more.  `rewind()` must restart the sequence from the beginning (also
/// after EOF) and every pass must yield the same fingerprints in the same
/// order — the pipeline throws util::DatasetError when the count changes
/// between passes.
class FingerprintStream {
 public:
  virtual ~FingerprintStream() = default;

  /// Yields the next fingerprint.  Returns false at end of stream.
  virtual bool next(cdr::Fingerprint& fingerprint) = 0;

  /// Restarts from the first fingerprint.
  virtual void rewind() = 0;

  /// Zero-copy escape hatch: when the stream is backed by an already
  /// materialized dataset, returns it and the pipeline reads fingerprints
  /// by index (the executor copies each job's members as the job starts)
  /// instead of re-streaming the whole sequence per batch.  Byte-identical
  /// output either way.  nullptr for true streams.
  [[nodiscard]] virtual const cdr::FingerprintDataset* materialized()
      const noexcept {
    return nullptr;
  }

  /// Index fast path for pass 1: when the stream carries precomputed
  /// per-fingerprint summaries (bit-exact core::fingerprint_bounds fields
  /// plus group size and sample count, in stream order), fills `out` and
  /// returns true so the planning scan never touches the payload.
  /// Default: unsupported.
  virtual bool summaries(std::vector<cdr::FingerprintSummary>& out) {
    (void)out;
    return false;
  }

  /// Index fast path for the rewound materialization passes: fetches
  /// exactly the fingerprints whose stream index keys `slot_of_id` into
  /// their mapped slots of `store` (pre-sized by the caller) and returns
  /// how many it materialized.  nullopt when the stream has no random
  /// access — the pipeline then re-streams the whole sequence.
  virtual std::optional<std::uint64_t> fetch(
      const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
      std::vector<cdr::Fingerprint>& store) {
    (void)slot_of_id;
    (void)store;
    return std::nullopt;
  }

  /// Path of the file backing this stream, when there is one.  The
  /// process ShardExecutor hands it to its workers so each can re-read
  /// its shard slice through its own streaming front door; streams
  /// without a shared file (in-memory datasets) return nullopt and only
  /// support the in-process executor.
  [[nodiscard]] virtual std::optional<std::string> file_path() const {
    return std::nullopt;
  }
};

/// In-memory adapter: streams an existing dataset (copies on yield).
class DatasetStream final : public FingerprintStream {
 public:
  explicit DatasetStream(const cdr::FingerprintDataset& data) noexcept
      : data_{&data} {}

  bool next(cdr::Fingerprint& fingerprint) override {
    if (cursor_ >= data_->size()) return false;
    fingerprint = (*data_)[cursor_++];
    return true;
  }

  void rewind() override { cursor_ = 0; }

  [[nodiscard]] const cdr::FingerprintDataset* materialized()
      const noexcept override {
    return data_;
  }

 private:
  const cdr::FingerprintDataset* data_;
  std::size_t cursor_ = 0;
};

/// Receives finalized k-anonymous groups in output order.
using GroupEmitter = std::function<void(cdr::Fingerprint&&)>;

/// Decomposition and phase accounting of a sharded run, on top of the
/// aggregated inner GLOVE counters.
struct ShardedStats {
  core::GloveStats glove;
  std::size_t tiles = 0;
  std::size_t shards = 0;
  std::size_t deferred_fingerprints = 0;
  std::size_t reconciled_groups = 0;
  std::size_t absorbed_leftovers = 0;
  /// Rewound passes over the source spent materializing reconcile batches
  /// (true — non-materialized — sources only, and only for the units the
  /// coordinator reads itself).
  std::size_t reconcile_passes = 0;
  /// Tile edge actually used: the configured tile_size_m, or the
  /// density-derived choice when the config asked for adaptive (0).
  double tile_size_m = 0.0;
  double plan_seconds = 0.0;       ///< streaming scan + tiling + planning
  double reconcile_seconds = 0.0;  ///< cross-shard reconciliation phase
};

struct StreamShardedResult {
  ShardedStats stats;
  /// Per-shard sizes and wall-clock, in shard order.
  std::vector<ShardTiming> shard_timings;
  /// Fingerprints read from the stream on each pass: the planning scan,
  /// then one entry per batch that materialized anything on the
  /// coordinator — shard batches first, then reconcile batches
  /// (stats.reconcile_passes counts those).  A materialized() source is
  /// never re-streamed, so it reports the single scan pass.  An
  /// index-capable stream (fetch()) reports, for each rewound pass, only
  /// the fingerprints that pass materialized.  Under the process executor
  /// the GLOVE jobs are read worker-side, so only the planning pass and
  /// the passes for pass-throughs and the policy tail appear here.
  std::vector<std::uint64_t> pass_fingerprints;
  /// Which ShardExecutor ran the GLOVE jobs ("inprocess", "process") and
  /// its resolved parallelism, for the run report's "exec" section.
  std::string exec_kind;
  std::uint64_t exec_workers = 0;
  /// Per-worker accounting (process executor only; empty otherwise).
  std::vector<exec::ExecWorkerStats> exec_worker_stats;
};

/// Runs the sharded pipeline over a restartable stream, emitting groups
/// to `emit` as they are finalized.  Requires glove.k >= 2, tile_size_m
/// >= 0 (0 = adaptive from observed anchor density), halo_m >= 0 and
/// max_shard_users >= glove.k (std::invalid_argument otherwise); a stream
/// holding fewer than k fingerprints raises util::DatasetError.
/// Deterministic for a given stream content and configuration,
/// independent of `workers`, the executor and batch boundaries.  Progress
/// units are input fingerprints — kept ones as their shard completes,
/// deferred ones as reconciliation consumes them — plus one final tick;
/// cancellation aborts with
/// util::CancelledError (groups already emitted stay with the emitter —
/// file sinks may hold a partial dataset on failure).
[[nodiscard]] StreamShardedResult anonymize_sharded_stream(
    FingerprintStream& source, const ShardConfig& config,
    const GroupEmitter& emit, const util::RunHooks& hooks = {});

}  // namespace glove::shard

#endif  // GLOVE_SHARD_STREAM_HPP
