#include "glove/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <map>
#include <mutex>
#include <stdexcept>

namespace glove::obs {
namespace {

/// One thread's slice of every counter.  Updates are relaxed atomic stores
/// from the owning thread; `snapshot_metrics` reads them from another
/// thread, which is exactly the race relaxed atomics make benign (a
/// snapshot may miss in-flight increments, never tear).
struct ThreadShard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
};

/// Plain (mutex-guarded) totals folded in from threads that have exited.
struct RetiredTotals {
  std::array<std::uint64_t, kMaxCounters> counters{};
};

class Registry {
 public:
  std::uint32_t register_name(std::vector<std::string>& names,
                              std::size_t capacity, std::string_view name,
                              const char* kind) {
    if (!valid_metric_name(name)) {
      throw std::invalid_argument{std::string{"obs: invalid "} + kind +
                                  " name \"" + std::string{name} +
                                  "\" (want [a-z0-9_.]+)"};
    }
    const std::lock_guard lock{mutex_};
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) {
      return static_cast<std::uint32_t>(it - names.begin());
    }
    if (names.size() >= capacity) {
      throw std::length_error{std::string{"obs: "} + kind +
                              " capacity exceeded (" + std::string{name} +
                              ")"};
    }
    names.emplace_back(name);
    return static_cast<std::uint32_t>(names.size() - 1);
  }

  std::uint32_t register_counter(std::string_view name) {
    return register_name(counter_names_, kMaxCounters, name, "counter");
  }
  std::uint32_t register_gauge(std::string_view name) {
    return register_name(gauge_names_, kMaxGauges, name, "gauge");
  }

  void attach(ThreadShard* shard) {
    const std::lock_guard lock{mutex_};
    live_.push_back(shard);
  }

  /// Folds an exiting thread's shard into the retired totals so its
  /// contribution survives the thread (pool teardown, joined workers).
  void detach(ThreadShard* shard) {
    const std::lock_guard lock{mutex_};
    live_.erase(std::remove(live_.begin(), live_.end(), shard), live_.end());
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      retired_.counters[i] +=
          shard->counters[i].load(std::memory_order_relaxed);
    }
  }

  void set_gauge(std::uint32_t id, double value) noexcept {
    gauges_[id].store(value, std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() {
    const std::lock_guard lock{mutex_};
    MetricsSnapshot snap;
    snap.counters.reserve(counter_names_.size());
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      std::uint64_t total = retired_.counters[i];
      for (const ThreadShard* shard : live_) {
        total += shard->counters[i].load(std::memory_order_relaxed);
      }
      snap.counters.emplace_back(counter_names_[i], total);
    }
    snap.gauges.reserve(gauge_names_.size());
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
      snap.gauges.emplace_back(gauge_names_[i],
                               gauges_[i].load(std::memory_order_relaxed));
    }
    const auto by_name = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), by_name);
    std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
    return snap;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<ThreadShard*> live_;
  RetiredTotals retired_;
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
};

/// Leaky singleton: thread_local shard destructors run at thread exit,
/// possibly after static destruction, so the registry must outlive them.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

/// RAII hook tying a thread's shard lifetime to the registry.
struct ShardHandle {
  ThreadShard shard;
  ShardHandle() { registry().attach(&shard); }
  ~ShardHandle() { registry().detach(&shard); }
  ShardHandle(const ShardHandle&) = delete;
  ShardHandle& operator=(const ShardHandle&) = delete;
};

ThreadShard& local_shard() {
  thread_local ShardHandle handle;
  return handle.shard;
}

}  // namespace

bool valid_metric_name(std::string_view name) noexcept {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

void Counter::add(std::uint64_t delta) const noexcept {
  local_shard().counters[id_].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  registry().set_gauge(id_, value);
}

Counter counter(std::string_view name) {
  return Counter{registry().register_counter(name)};
}

Gauge gauge(std::string_view name) {
  return Gauge{registry().register_gauge(name)};
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return 0;
}

MetricsSnapshot snapshot_metrics() { return registry().snapshot(); }

std::string render_metrics_text(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    out += "counter ";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    char buffer[32];
    const std::to_chars_result result =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    out += "gauge ";
    out += name;
    out += ' ';
    out.append(buffer, static_cast<std::size_t>(result.ptr - buffer));
    out += '\n';
  }
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const MetricsSnapshot& before, const MetricsSnapshot& after) {
  std::vector<std::pair<std::string, std::uint64_t>> delta;
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t prior = before.counter_value(name);
    if (value > prior) delta.emplace_back(name, value - prior);
  }
  return delta;
}

}  // namespace glove::obs
