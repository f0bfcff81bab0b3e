// Metrics registry: exact cross-thread sums (this suite runs under the
// TSan CI job via the obs. test-name prefix), retired-thread folding, and
// the snapshot/delta contracts the run report's "obs" section depends on.

#include "glove/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace glove::obs {
namespace {

TEST(ObsRegistry, CounterSumsExactlyAcrossThreads) {
  const Counter c = counter("test.registry.thread_sum");
  const MetricsSnapshot before = snapshot_metrics();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add();
      c.add(5);  // non-unit deltas fold the same way
    });
  }
  for (std::thread& w : workers) w.join();
  const MetricsSnapshot after = snapshot_metrics();
  EXPECT_EQ(after.counter_value("test.registry.thread_sum") -
                before.counter_value("test.registry.thread_sum"),
            kThreads * (kAddsPerThread + 5));
}

TEST(ObsRegistry, RetiredThreadTotalsSurviveThreadExit) {
  const Counter c = counter("test.registry.retired");
  std::thread worker{[&] { c.add(123); }};
  worker.join();
  // The worker's shard is gone; its total must have been folded into the
  // registry's retired totals.
  EXPECT_GE(snapshot_metrics().counter_value("test.registry.retired"), 123u);
}

TEST(ObsRegistry, RenderMetricsTextIsSortedAndTyped) {
  const Counter c = counter("test.render.aa_count");
  const Gauge g = gauge("test.render.bb_gauge");
  c.add(3);
  g.set(2.5);
  const std::string text = render_metrics_text(snapshot_metrics());
  // One "<type> <name> <value>" line per metric, in the snapshot's
  // name-sorted order — the admin `metrics` wire format.
  const std::size_t c_pos = text.find("counter test.render.aa_count ");
  const std::size_t g_pos = text.find("gauge test.render.bb_gauge 2.5\n");
  ASSERT_NE(c_pos, std::string::npos) << text;
  ASSERT_NE(g_pos, std::string::npos) << text;
  EXPECT_LT(c_pos, g_pos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsRegistry, RegistrationIsIdempotent) {
  const Counter a = counter("test.registry.same_slot");
  const Counter b = counter("test.registry.same_slot");
  const MetricsSnapshot before = snapshot_metrics();
  a.add(2);
  b.add(3);
  const MetricsSnapshot after = snapshot_metrics();
  EXPECT_EQ(after.counter_value("test.registry.same_slot") -
                before.counter_value("test.registry.same_slot"),
            5u);
}

TEST(ObsRegistry, GaugeIsLastWriteWins) {
  const Gauge g = gauge("test.registry.gauge");
  g.set(4.0);
  g.set(2.5);
  const MetricsSnapshot snapshot = snapshot_metrics();
  const auto it = std::find_if(
      snapshot.gauges.begin(), snapshot.gauges.end(),
      [](const auto& entry) { return entry.first == "test.registry.gauge"; });
  ASSERT_NE(it, snapshot.gauges.end());
  EXPECT_DOUBLE_EQ(it->second, 2.5);
}

TEST(ObsRegistry, InvalidNamesThrow) {
  EXPECT_THROW((void)counter(""), std::invalid_argument);
  EXPECT_THROW((void)counter("Upper.case"), std::invalid_argument);
  EXPECT_THROW((void)gauge("has space"), std::invalid_argument);
  EXPECT_TRUE(valid_metric_name("stream.pass1.scan"));
  EXPECT_TRUE(valid_metric_name("a_b.c_0"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("A"));
}

TEST(ObsRegistry, SnapshotIsSortedByName) {
  (void)counter("test.registry.zz");
  (void)counter("test.registry.aa");
  const MetricsSnapshot snapshot = snapshot_metrics();
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(ObsRegistry, CounterDeltaIsolatesARunAndDropsZeros) {
  const Counter moved = counter("test.registry.delta_moved");
  const Counter idle = counter("test.registry.delta_idle");
  moved.add(10);  // pre-run noise, as from an earlier run in the process
  idle.add(1);
  const MetricsSnapshot before = snapshot_metrics();
  moved.add(7);
  const MetricsSnapshot after = snapshot_metrics();
  const auto delta = counter_delta(before, after);
  const auto find = [&](std::string_view name) {
    return std::find_if(delta.begin(), delta.end(), [&](const auto& entry) {
      return entry.first == name;
    });
  };
  const auto hit = find("test.registry.delta_moved");
  ASSERT_NE(hit, delta.end());
  EXPECT_EQ(hit->second, 7u);
  EXPECT_EQ(find("test.registry.delta_idle"), delta.end());
}

}  // namespace
}  // namespace glove::obs
