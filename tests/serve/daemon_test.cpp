// End-to-end ServeDaemon coverage: the acceptance properties of service
// mode.  Snapshot bytes must be identical across ingest-queue depths and
// shard worker counts (the FIFO queue + watermark windows + byte-stable
// strategies argument), published groups must only ever widen across
// epochs, the admin socket must answer health/metrics/drain, and a
// malformed stream row must fail the run with file/line context.

#include "glove/serve/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/temp_dir.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#define GLOVE_TEST_HAVE_AF_UNIX 1
#endif

namespace glove::serve {
namespace {

/// Deterministic three-window stream: users 0..9 are active from t=0,
/// users 10..13 first appear in the second window and 20..21 in the
/// third, so every epoch after the first exercises the incremental path.
/// Users are placed in co-located pairs to keep merges cheap.
std::vector<cdr::CdrEvent> test_stream() {
  std::vector<cdr::CdrEvent> events;
  const auto at = [](cdr::UserId user, double time_min) {
    return cdr::CdrEvent{
        user, time_min,
        geo::LatLon{6.82 + 0.002 * static_cast<double>(user / 2), -5.28}};
  };
  for (int w = 0; w < 3; ++w) {
    const double base = 100.0 * w;
    for (cdr::UserId user = 0; user < 10; ++user) {
      events.push_back(at(user, base + 1.0 + static_cast<double>(user)));
      events.push_back(at(user, base + 50.0 + static_cast<double>(user)));
    }
    if (w >= 1) {
      for (cdr::UserId user = 10; user < 14; ++user) {
        events.push_back(at(user, base + 20.0 + static_cast<double>(user)));
      }
    }
    if (w >= 2) {
      for (cdr::UserId user = 20; user < 22; ++user) {
        events.push_back(at(user, base + 30.0 + static_cast<double>(user)));
      }
    }
  }
  return events;
}

ServeConfig base_config(const std::string& input, const std::string& out) {
  ServeConfig config;
  config.input_path = input;
  config.out_dir = out;
  config.window_min = 100.0;
  config.run.k = 2;
  config.run.strategy = std::string{api::kStrategySharded};
  config.builder.projection_origin = geo::LatLon{6.82, -5.28};
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> snapshot_files(const std::string& out_dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(out_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(ServeDaemon, BatchRunPublishesKAnonymousEpochs) {
  const test::TempDir dir;
  const std::string input = dir.file("events.csv");
  cdr::write_cdr_file(input, test_stream());

  ServeDaemon daemon{base_config(input, dir.file("out"))};
  const ServeSummary summary = daemon.run();
  ASSERT_EQ(summary.exit_code, 0) << summary.error;
  EXPECT_EQ(summary.events_ingested, test_stream().size());
  EXPECT_EQ(summary.windows_closed, 2u);   // third window drains as final
  EXPECT_EQ(summary.epochs_published, 3u);  // one epoch per active window

  const std::vector<std::string> snapshots =
      snapshot_files(dir.file("out"));
  ASSERT_EQ(snapshots.size(), 3u);
  for (const std::string& path : snapshots) {
    EXPECT_TRUE(
        core::is_k_anonymous(test::read_dataset(path), 2u))
        << path;
  }
}

TEST(ServeDaemon, PublishedGroupsOnlyWidenAcrossEpochs) {
  const test::TempDir dir;
  const std::string input = dir.file("events.csv");
  cdr::write_cdr_file(input, test_stream());

  ServeDaemon daemon{base_config(input, dir.file("out"))};
  ASSERT_EQ(daemon.run().exit_code, 0);

  const std::vector<std::string> snapshots =
      snapshot_files(dir.file("out"));
  ASSERT_GE(snapshots.size(), 2u);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    const cdr::FingerprintDataset before =
        test::read_dataset(snapshots[i - 1]);
    const cdr::FingerprintDataset after =
        test::read_dataset(snapshots[i]);
    for (const cdr::Fingerprint& old_group : before.fingerprints()) {
      const std::set<cdr::UserId> old_members{old_group.members().begin(),
                                              old_group.members().end()};
      bool found = false;
      for (const cdr::Fingerprint& new_group : after.fingerprints()) {
        const std::set<cdr::UserId> members{new_group.members().begin(),
                                            new_group.members().end()};
        if (std::includes(members.begin(), members.end(),
                          old_members.begin(), old_members.end())) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "epoch " << i << " split a group of epoch "
                         << i - 1;
    }
  }
}

TEST(ServeDaemon, SnapshotBytesStableAcrossQueueDepthsAndWorkers) {
  // The acceptance property: for a fixed event stream the published
  // bytes must not depend on ingest-queue capacity (timing) or shard
  // worker count (parallelism).
  const test::TempDir dir;
  const std::string input = dir.file("events.csv");
  cdr::write_cdr_file(input, test_stream());

  struct Variant {
    std::size_t queue_capacity;
    std::size_t workers;
  };
  const std::vector<Variant> variants{
      {1, 1}, {1, 4}, {65'536, 1}, {65'536, 4}};

  std::vector<std::vector<std::string>> all_bytes;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::string out = dir.file("out-" + std::to_string(v));
    ServeConfig config = base_config(input, out);
    config.queue_capacity = variants[v].queue_capacity;
    config.run.sharded.workers = variants[v].workers;
    ServeDaemon daemon{config};
    const ServeSummary summary = daemon.run();
    ASSERT_EQ(summary.exit_code, 0) << summary.error;
    std::vector<std::string> bytes;
    for (const std::string& path : snapshot_files(out)) {
      bytes.push_back(slurp(path));
    }
    ASSERT_FALSE(bytes.empty());
    all_bytes.push_back(std::move(bytes));
  }
  for (std::size_t v = 1; v < all_bytes.size(); ++v) {
    ASSERT_EQ(all_bytes[v].size(), all_bytes[0].size());
    for (std::size_t i = 0; i < all_bytes[0].size(); ++i) {
      EXPECT_EQ(all_bytes[v][i], all_bytes[0][i])
          << "snapshot " << i << " differs: queue="
          << variants[v].queue_capacity << " workers="
          << variants[v].workers;
    }
  }
}

TEST(ServeDaemon, FarFutureEventPublishesTheSameSnapshots) {
  // One event 1e12 minutes in, about 1e10 windows past the stream: the
  // gap before it closes as one empty window, so the run ends, and it
  // publishes the snapshots of the stream without that event (user 9 is
  // already published, so the event is dropped).
  const test::TempDir dir;
  std::vector<cdr::CdrEvent> events = test_stream();
  const std::string plain = dir.file("plain.csv");
  cdr::write_cdr_file(plain, events);
  events.push_back(cdr::CdrEvent{9u, 1e12, geo::LatLon{6.82, -5.28}});
  const std::string far = dir.file("far.csv");
  cdr::write_cdr_file(far, events);

  std::vector<std::vector<std::string>> published;
  for (const std::string& input : {plain, far}) {
    const std::string out =
        dir.file("out-" + std::to_string(published.size()));
    ServeDaemon daemon{base_config(input, out)};
    const ServeSummary summary = daemon.run();
    ASSERT_EQ(summary.exit_code, 0) << summary.error;
    // [0,100), [100,200), then [200,300) and the empty run [300, 1e12).
    EXPECT_EQ(summary.windows_closed, input == far ? 4u : 2u);
    std::vector<std::string> bytes;
    for (const std::string& path : snapshot_files(out)) {
      bytes.push_back(std::filesystem::path{path}.filename().string() + "\n" +
                      slurp(path));
    }
    published.push_back(std::move(bytes));
  }
  EXPECT_EQ(published[0].size(), 3u);
  EXPECT_EQ(published[1], published[0]);
}

TEST(ServeDaemon, MalformedRowFailsWithPathAndLine) {
  const test::TempDir dir;
  const std::string input = dir.file("broken.csv");
  std::ofstream{input} << "1,10,6.82,-5.28\n2,11,oops,-5.28\n";

  ServeDaemon daemon{base_config(input, dir.file("out"))};
  const ServeSummary summary = daemon.run();
  EXPECT_EQ(summary.exit_code, 1);
  EXPECT_NE(summary.error.find(input), std::string::npos) << summary.error;
  EXPECT_NE(summary.error.find("line 2"), std::string::npos)
      << summary.error;
}

TEST(ServeDaemon, MissingInputFailsInBatchMode) {
  const test::TempDir dir;
  ServeDaemon daemon{
      base_config(dir.file("never-written.csv"), dir.file("out"))};
  const ServeSummary summary = daemon.run();
  EXPECT_EQ(summary.exit_code, 1);
  EXPECT_NE(summary.error.find("cannot open"), std::string::npos)
      << summary.error;
}

#if defined(GLOVE_TEST_HAVE_AF_UNIX)

/// One admin round-trip: connect, send `command`, read until EOF.
std::string admin_request(const std::string& socket_path,
                          const std::string& command) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "<socket failed>";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  socket_path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "<connect failed>";
  }
  const std::string line = command + "\n";
  (void)::write(fd, line.data(), line.size());
  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(ServeDaemon, AdminSocketAnswersHealthMetricsAndDrain) {
  const test::TempDir dir;
  const std::string input = dir.file("events.csv");
  cdr::write_cdr_file(input, test_stream());

  ServeConfig config = base_config(input, dir.file("out"));
  config.follow = true;  // never self-drains: only `drain` may end it
  config.poll_interval_ms = 10;
  config.admin_socket = dir.file("admin.sock");

  ServeDaemon daemon{config};
  ServeSummary summary;
  std::thread runner{[&] { summary = daemon.run(); }};

  // Wait for the socket to come up, then for ingest to finish the file.
  const std::string all_events =
      "events=" + std::to_string(test_stream().size());
  std::string health;
  for (int attempt = 0; attempt < 500; ++attempt) {
    health = admin_request(config.admin_socket, "health");
    if (health.rfind("ok ", 0) == 0 &&
        health.find(all_events) != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  ASSERT_EQ(health.rfind("ok ", 0), 0u) << health;

  const std::string metrics =
      admin_request(config.admin_socket, "metrics");
  EXPECT_NE(metrics.find("counter serve.events_ingested"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("gauge serve.queue_depth"), std::string::npos);

  EXPECT_EQ(admin_request(config.admin_socket, "bogus"),
            "err unknown command: bogus\n");

  EXPECT_EQ(admin_request(config.admin_socket, "drain"), "draining\n");
  runner.join();
  EXPECT_EQ(summary.exit_code, 0) << summary.error;
  EXPECT_EQ(summary.events_ingested, test_stream().size());
  EXPECT_GE(summary.epochs_published, 3u);
  // A drained daemon removed its socket file.
  EXPECT_FALSE(std::filesystem::exists(config.admin_socket));
}

TEST(ServeDaemon, FollowModeTailsAppendedEvents) {
  const test::TempDir dir;
  const std::string input = dir.file("events.csv");
  const std::vector<cdr::CdrEvent> events = test_stream();
  // Write only the first half; the daemon must pick up the rest live.
  {
    std::vector<cdr::CdrEvent> head{events.begin(),
                                    events.begin() + 20};
    cdr::write_cdr_file(input, head);
  }

  ServeConfig config = base_config(input, dir.file("out"));
  config.follow = true;
  config.poll_interval_ms = 10;
  config.admin_socket = dir.file("admin.sock");
  ServeDaemon daemon{config};
  ServeSummary summary;
  std::thread runner{[&] { summary = daemon.run(); }};

  for (int attempt = 0; attempt < 500; ++attempt) {
    const std::string health =
        admin_request(config.admin_socket, "health");
    if (health.find("events=20") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  // Append the tail the way a live probe would: to the same file.
  {
    std::ofstream out{input, std::ios::app};
    std::vector<cdr::CdrEvent> tail{events.begin() + 20, events.end()};
    cdr::write_cdr_csv(out, tail);
  }
  for (int attempt = 0; attempt < 500; ++attempt) {
    const std::string health =
        admin_request(config.admin_socket, "health");
    if (health.find("events=" + std::to_string(events.size())) !=
        std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  (void)admin_request(config.admin_socket, "drain");
  runner.join();
  ASSERT_EQ(summary.exit_code, 0) << summary.error;
  EXPECT_EQ(summary.events_ingested, events.size());

  // The tailed run must publish the same bytes as a batch replay.
  ServeConfig replay = base_config(input, dir.file("out-replay"));
  ServeDaemon replay_daemon{replay};
  ASSERT_EQ(replay_daemon.run().exit_code, 0);
  const std::vector<std::string> live = snapshot_files(dir.file("out"));
  const std::vector<std::string> batch =
      snapshot_files(dir.file("out-replay"));
  ASSERT_EQ(live.size(), batch.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(slurp(live[i]), slurp(batch[i])) << "snapshot " << i;
  }
}

#endif  // GLOVE_TEST_HAVE_AF_UNIX

}  // namespace
}  // namespace glove::serve
