#include "glove/cdr/builder.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace glove::cdr {
namespace {

BuilderConfig planar_config() {
  BuilderConfig config;
  config.grid_cell_m = 100.0;
  config.time_step_min = 1.0;
  return config;
}

TEST(Builder, GroupsEventsPerUser) {
  std::vector<PlanarEvent> events{
      {0u, 10.2, {50.0, 50.0}},
      {1u, 11.7, {250.0, 50.0}},
      {0u, 500.9, {1050.0, 950.0}},
  };
  const FingerprintDataset data = build_fingerprints(events, planar_config());
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0].members()[0], 0u);
  EXPECT_EQ(data[0].size(), 2u);
  EXPECT_EQ(data[1].members()[0], 1u);
  EXPECT_EQ(data[1].size(), 1u);
}

TEST(Builder, SnapsToGridAndMinute) {
  std::vector<PlanarEvent> events{{0u, 12.7, {151.0, 263.0}}};
  const FingerprintDataset data = build_fingerprints(events, planar_config());
  const Sample& s = data[0].samples()[0];
  EXPECT_DOUBLE_EQ(s.sigma.x, 100.0);
  EXPECT_DOUBLE_EQ(s.sigma.dx, 100.0);
  EXPECT_DOUBLE_EQ(s.sigma.y, 200.0);
  EXPECT_DOUBLE_EQ(s.sigma.dy, 100.0);
  EXPECT_DOUBLE_EQ(s.tau.t, 12.0);
  EXPECT_DOUBLE_EQ(s.tau.dt, 1.0);
}

TEST(Builder, DeduplicatesSameCellSameMinute) {
  std::vector<PlanarEvent> events{
      {0u, 10.1, {50.0, 50.0}},
      {0u, 10.9, {80.0, 20.0}},  // same cell, same minute
      {0u, 10.5, {150.0, 50.0}}, // different cell, same minute
  };
  const FingerprintDataset data = build_fingerprints(events, planar_config());
  EXPECT_EQ(data[0].size(), 2u);
}

TEST(Builder, DeduplicationCanBeDisabled) {
  std::vector<PlanarEvent> events{
      {0u, 10.1, {50.0, 50.0}},
      {0u, 10.9, {80.0, 20.0}},
  };
  BuilderConfig config = planar_config();
  config.deduplicate = false;
  // Without dedup the two events collapse onto the same key only in the
  // map; keep them distinct by disabling dedup -> map insert_or_assign
  // still keeps one.  The builder contract: dedup=false keeps the last
  // event of the key.
  const FingerprintDataset data = build_fingerprints(events, config);
  EXPECT_EQ(data[0].size(), 1u);
}

TEST(Builder, SamplesAreTimeSorted) {
  std::vector<PlanarEvent> events{
      {0u, 500.0, {0.0, 0.0}},
      {0u, 10.0, {1000.0, 0.0}},
      {0u, 250.0, {2000.0, 0.0}},
  };
  const FingerprintDataset data = build_fingerprints(events, planar_config());
  const auto samples = data[0].samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_LT(samples[0].tau.t, samples[1].tau.t);
  EXPECT_LT(samples[1].tau.t, samples[2].tau.t);
}

TEST(Builder, RejectsBadGranularity) {
  std::vector<PlanarEvent> events{{0u, 0.0, {0.0, 0.0}}};
  BuilderConfig config = planar_config();
  config.grid_cell_m = 0.0;
  EXPECT_THROW((void)build_fingerprints(events, config),
               std::invalid_argument);
  config = planar_config();
  config.time_step_min = -1.0;
  EXPECT_THROW((void)build_fingerprints(events, config),
               std::invalid_argument);
}

TEST(Builder, GeographicEventsAreProjected) {
  BuilderConfig config = planar_config();
  config.projection_origin = geo::LatLon{5.345, -4.024};
  std::vector<CdrEvent> events{
      {0u, 10.0, geo::LatLon{5.345, -4.024}},   // at origin
      {0u, 20.0, geo::LatLon{5.345, -3.50}},    // ~58 km east
  };
  const FingerprintDataset data = build_fingerprints(events, config);
  ASSERT_EQ(data[0].size(), 2u);
  const Sample& near = data[0].samples()[0];
  const Sample& far = data[0].samples()[1];
  EXPECT_NEAR(near.sigma.x, 0.0, 100.0);
  EXPECT_GT(far.sigma.x, 50'000.0);
  EXPECT_LT(far.sigma.x, 70'000.0);
}

TEST(Builder, EmptyEventListYieldsEmptyDataset) {
  const FingerprintDataset data =
      build_fingerprints(std::vector<PlanarEvent>{}, planar_config());
  EXPECT_TRUE(data.empty());
}

TEST(Builder, NegativeCoordinatesSupported) {
  std::vector<PlanarEvent> events{{0u, 5.0, {-151.0, -263.0}}};
  const FingerprintDataset data = build_fingerprints(events, planar_config());
  const Sample& s = data[0].samples()[0];
  EXPECT_DOUBLE_EQ(s.sigma.x, -200.0);
  EXPECT_DOUBLE_EQ(s.sigma.y, -300.0);
}

TEST(Builder, RefusesAMinuteIndexOffItsRange) {
  // floor(time / step) must fit the long long minute index, as a cell
  // index must fit int32 (geo::Grid::cell_of); glove_serve builds each
  // epoch's fingerprints through the geographic overload.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double time : {1e300, -1e300, 0x1p63, nan}) {
    const std::vector<CdrEvent> events{{10u, 0.0, geo::LatLon{6.8, -5.3}},
                                       {11u, time, geo::LatLon{6.8, -5.3}}};
    EXPECT_THROW((void)build_fingerprints(events, BuilderConfig{}),
                 std::out_of_range)
        << time;
    const std::vector<PlanarEvent> planar{{10u, time, {0.0, 0.0}}};
    EXPECT_THROW((void)build_fingerprints(planar, planar_config()),
                 std::out_of_range)
        << time;
  }
  // The extreme indices that fit are kept: -2^63 exactly, and the largest
  // double below 2^63.
  const std::vector<PlanarEvent> edges{
      {0u, -0x1p63, {0.0, 0.0}}, {1u, 0x1p63 - 1024.0, {0.0, 0.0}}};
  const FingerprintDataset data = build_fingerprints(edges, planar_config());
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0].samples()[0].tau.t, -0x1p63);
  EXPECT_EQ(data[1].samples()[0].tau.t, 0x1p63 - 1024.0);
}

}  // namespace
}  // namespace glove::cdr
