#include "glove/serve/publish.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"

namespace glove::serve {
namespace {

cdr::CdrEvent event(cdr::UserId user, double time_min, double lat_offset) {
  return cdr::CdrEvent{user, time_min,
                       geo::LatLon{6.82 + lat_offset, -5.28}};
}

ClosedWindow window_of(double begin_min, double end_min,
                       std::vector<cdr::CdrEvent> events) {
  return ClosedWindow{WindowBounds{begin_min, end_min}, std::move(events)};
}

/// Serve config publishing CSV snapshots with k=2 into a fresh temp dir.
ServeConfig test_config(const test::TempDir& dir) {
  ServeConfig config;
  config.out_dir = dir.file("out");
  // std::string{} sidesteps a GCC 12 -Wrestrict false positive on short
  // const char* assignment (GCC PR105329).
  config.dataset_name = std::string{"t"};
  config.run.k = 2;
  config.builder.projection_origin = geo::LatLon{6.82, -5.28};
  std::filesystem::create_directories(config.out_dir);
  return config;
}

/// Every group of `before` must survive as a subset of some group of
/// `after` — the cross-release linkage guarantee snapshots must keep.
void expect_groups_never_split(const cdr::FingerprintDataset& before,
                               const cdr::FingerprintDataset& after) {
  for (const cdr::Fingerprint& old_group : before.fingerprints()) {
    const std::set<cdr::UserId> old_members{old_group.members().begin(),
                                            old_group.members().end()};
    bool found = false;
    for (const cdr::Fingerprint& new_group : after.fingerprints()) {
      const std::set<cdr::UserId> members{new_group.members().begin(),
                                          new_group.members().end()};
      if (std::includes(members.begin(), members.end(), old_members.begin(),
                        old_members.end())) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "group lost members across epochs";
  }
}

TEST(SnapshotPublisher, RejectsUnknownSnapshotFormat) {
  const test::TempDir dir;
  const api::Engine engine;
  ServeConfig config = test_config(dir);
  config.snapshot_format = "parquet";
  EXPECT_THROW((SnapshotPublisher{config, engine}), std::invalid_argument);
}

TEST(SnapshotPublisher, RejectsPresetIncrementalBase) {
  const test::TempDir dir;
  const api::Engine engine;
  const cdr::FingerprintDataset stray;
  ServeConfig config = test_config(dir);
  config.run.incremental.published = &stray;
  EXPECT_THROW((SnapshotPublisher{config, engine}), std::invalid_argument);
}

TEST(SnapshotPublisher, EmptyWindowPublishesNothing) {
  const test::TempDir dir;
  const api::Engine engine;
  const ServeConfig config = test_config(dir);
  SnapshotPublisher publisher{config, engine};
  const EpochResult result = publisher.publish_window(window_of(0, 100, {}));
  EXPECT_FALSE(result.published);
  EXPECT_EQ(publisher.epochs_published(), 0u);
}

TEST(SnapshotPublisher, DefersFirstEpochUntilKUsersPending) {
  const test::TempDir dir;
  const api::Engine engine;
  const ServeConfig config = test_config(dir);
  SnapshotPublisher publisher{config, engine};

  // One user < k=2: no k-anonymous release is possible yet.
  const EpochResult first =
      publisher.publish_window(window_of(0, 100, {event(1, 10, 0.0)}));
  EXPECT_FALSE(first.published);
  EXPECT_EQ(publisher.pending_events(), 1u);

  // The deferred user publishes together with the next window's newcomer.
  const EpochResult second =
      publisher.publish_window(window_of(100, 200, {event(2, 110, 0.0)}));
  ASSERT_TRUE(second.published);
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(second.newcomers, 2u);
  EXPECT_EQ(second.total_users, 2u);
  EXPECT_EQ(publisher.pending_events(), 0u);
}

TEST(SnapshotPublisher, SnapshotsAreKAnonymousAndAtomicallyNamed) {
  const test::TempDir dir;
  const api::Engine engine;
  const ServeConfig config = test_config(dir);
  SnapshotPublisher publisher{config, engine};

  std::vector<cdr::CdrEvent> events;
  for (cdr::UserId user = 0; user < 4; ++user) {
    events.push_back(event(user, 10.0 + static_cast<double>(user),
                           0.001 * static_cast<double>(user / 2)));
  }
  const EpochResult result =
      publisher.publish_window(window_of(0, 100, std::move(events)));
  ASSERT_TRUE(result.published);
  EXPECT_EQ(result.snapshot_path, config.out_dir + "/snapshot-000001.csv");
  EXPECT_EQ(result.report_path, config.out_dir + "/report-000001.json");
  ASSERT_TRUE(std::filesystem::exists(result.snapshot_path));
  ASSERT_TRUE(std::filesystem::exists(result.report_path));
  // No .tmp residue: the publish either completed or never surfaced.
  for (const auto& entry :
       std::filesystem::directory_iterator(config.out_dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }

  const cdr::FingerprintDataset snapshot =
      test::read_dataset(result.snapshot_path);
  EXPECT_TRUE(core::is_k_anonymous(snapshot, config.run.k));
  EXPECT_EQ(snapshot.total_users(), 4u);
}

TEST(SnapshotPublisher, LaterEpochsOnlyWidenPublishedGroups) {
  const test::TempDir dir;
  const api::Engine engine;
  const ServeConfig config = test_config(dir);
  SnapshotPublisher publisher{config, engine};

  std::vector<cdr::CdrEvent> first;
  for (cdr::UserId user = 0; user < 4; ++user) {
    first.push_back(event(user, 10.0 + static_cast<double>(user),
                          0.001 * static_cast<double>(user / 2)));
  }
  ASSERT_TRUE(publisher.publish_window(window_of(0, 100, first)).published);
  const cdr::FingerprintDataset epoch1 = publisher.published();

  std::vector<cdr::CdrEvent> second;
  for (cdr::UserId user = 10; user < 13; ++user) {
    second.push_back(event(user, 110.0 + static_cast<double>(user),
                           0.001 * static_cast<double>(user)));
  }
  const EpochResult result =
      publisher.publish_window(window_of(100, 200, second));
  ASSERT_TRUE(result.published);
  EXPECT_EQ(result.epoch, 2u);
  EXPECT_EQ(result.newcomers, 3u);
  EXPECT_EQ(result.total_users, 7u);

  expect_groups_never_split(epoch1, publisher.published());
  EXPECT_TRUE(core::is_k_anonymous(publisher.published(), config.run.k));
}

TEST(SnapshotPublisher, DropsEventsOfPublishedUsers) {
  const test::TempDir dir;
  const api::Engine engine;
  const ServeConfig config = test_config(dir);
  SnapshotPublisher publisher{config, engine};

  ASSERT_TRUE(publisher
                  .publish_window(window_of(
                      0, 100, {event(1, 10, 0.0), event(2, 11, 0.0)}))
                  .published);

  // Fresh events from already-published users must not trigger an epoch:
  // their released fingerprints are immutable.
  const EpochResult result = publisher.publish_window(
      window_of(100, 200, {event(1, 150, 0.0), event(2, 151, 0.0)}));
  EXPECT_FALSE(result.published);
  EXPECT_EQ(publisher.pending_events(), 0u);
  EXPECT_EQ(publisher.epochs_published(), 1u);
}

TEST(SnapshotPublisher, GlovebinSnapshotsRoundTrip) {
  const test::TempDir dir;
  const api::Engine engine;
  ServeConfig config = test_config(dir);
  config.snapshot_format = "glovebin";
  SnapshotPublisher publisher{config, engine};

  const EpochResult result = publisher.publish_window(
      window_of(0, 100, {event(1, 10, 0.0), event(2, 11, 0.0)}));
  ASSERT_TRUE(result.published);
  EXPECT_EQ(result.snapshot_path,
            config.out_dir + "/snapshot-000001.glovebin");
  const cdr::FingerprintDataset snapshot =
      test::read_dataset(result.snapshot_path);
  EXPECT_TRUE(core::is_k_anonymous(snapshot, config.run.k));
  EXPECT_EQ(snapshot.total_users(), 2u);
}

}  // namespace
}  // namespace glove::serve
