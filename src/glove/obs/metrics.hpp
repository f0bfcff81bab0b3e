// Thread-safe metrics registry: counters and gauges.
//
// Hot-path updates go to per-thread shards (relaxed atomics, no locks), so
// shard workers can count events without contention; `snapshot()` folds the
// shards into one deterministic, name-sorted view.  Metric handles are
// registered once (idempotent by name) and are cheap value types, so the
// idiom is a function-local static:
//
//   static const obs::Counter c_rows = obs::counter("source.csv.rows_read");
//   c_rows.add(batch.size());
//
// Only *deterministic* quantities (counts, bytes, passes) may flow into the
// run report via counters; wall-clock durations belong in spans, which stay
// trace-side so goldens never see timing jitter.
//
// Names must match [a-z0-9_.]+ (enforced here at registration and by the
// glove_lint obs-naming rule at the literal site).

#ifndef GLOVE_OBS_METRICS_HPP
#define GLOVE_OBS_METRICS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace glove::obs {

/// Capacity limits for the fixed per-thread shard arrays.  Registration
/// beyond a limit throws std::length_error: limits are sized ~4x above
/// current usage, so hitting one means a leak of dynamically generated
/// metric names, not a tuning problem.
inline constexpr std::size_t kMaxCounters = 160;
inline constexpr std::size_t kMaxGauges = 32;

/// Monotonic event counter.  Copyable handle; `add` touches only the
/// calling thread's shard.
class Counter {
 public:
  void add(std::uint64_t delta = 1) const noexcept;

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t id) noexcept : id_{id} {}
  std::uint32_t id_;
};

/// Last-write-wins instantaneous value (e.g. queue depth, heap size).
/// Writes are rare, so gauges are plain process-global atomics.
class Gauge {
 public:
  void set(double value) const noexcept;

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::uint32_t id) noexcept : id_{id} {}
  std::uint32_t id_;
};

/// Registers (or looks up) a metric by name.  Thread-safe and idempotent:
/// the same name always yields the same slot.  Throws std::invalid_argument
/// on a name outside [a-z0-9_.]+ and std::length_error past capacity.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);

/// True when `name` is non-empty and matches [a-z0-9_.]+ — the project
/// naming convention for spans and metrics.
[[nodiscard]] bool valid_metric_name(std::string_view name) noexcept;

/// Point-in-time fold of every thread's shard (plus totals retired by
/// exited threads).  All vectors are sorted by name, so two snapshots of
/// the same state render identically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  /// Value of counter `name`, or 0 when never registered.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
};

[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Deterministic plain-text rendering of a snapshot — one line per metric
/// in the snapshot's (name-sorted) order:
///
///   counter serve.events_ingested 1200
///   gauge serve.queue_depth 0
///
/// Gauges use shortest-round-trip doubles (std::to_chars), so two
/// snapshots of the same state render byte-identically.  This is the
/// admin-socket `metrics` reply of glove-serve.
[[nodiscard]] std::string render_metrics_text(const MetricsSnapshot& snapshot);

/// Counter increments between two snapshots (`before` taken first), sorted
/// by name with zero-delta entries dropped.  This is what a single run
/// contributes, independent of earlier runs in the same process.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
counter_delta(const MetricsSnapshot& before, const MetricsSnapshot& after);

}  // namespace glove::obs

#endif  // GLOVE_OBS_METRICS_HPP
