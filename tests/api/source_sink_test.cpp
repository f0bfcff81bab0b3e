// The streaming run boundary: DatasetSource/DatasetSink contracts
// (iteration, rewind — including after EOF —, error context, byte parity
// of the file sink with the bulk writer) and the Engine's streaming
// overload (collect-then-run fallback, sharded streaming passes, a whole
// read of a source read from before, typed errors on empty/short
// sources).

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/engine.hpp"
#include "glove/cdr/binio.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"

namespace glove::api {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<cdr::Fingerprint> drain(DatasetSource& source) {
  std::vector<cdr::Fingerprint> out;
  cdr::Fingerprint fp;
  while (source.next(fp)) out.push_back(std::move(fp));
  return out;
}

TEST(MemorySource, IteratesRewindsAndReportsIdentity) {
  const cdr::FingerprintDataset data = test::grouped_io_dataset();
  MemorySource source{data};
  EXPECT_EQ(source.kind(), "memory");
  EXPECT_EQ(source.name(), "io-test");
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), data.size());

  EXPECT_EQ(drain(source).size(), data.size());
  // Rewind after EOF restarts from the first fingerprint.
  source.rewind();
  const auto again = drain(source);
  ASSERT_EQ(again.size(), data.size());
  EXPECT_EQ(again[0].members()[0], data[0].members()[0]);
}

TEST(CsvFileSource, StreamsAFileAndRewindsAfterEof) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(12);
  const std::string path = dir.file("data.csv");
  cdr::write_dataset_file(path, data);

  CsvFileSource source{path};
  EXPECT_EQ(source.kind(), "csv-file");
  EXPECT_EQ(source.name(), data.name());  // the header's, not the path
  EXPECT_FALSE(source.size_hint().has_value());
  EXPECT_EQ(drain(source).size(), data.size());

  // A drained file source must restart cleanly — the streaming sharded
  // backend rewinds once per shard batch.
  source.rewind();
  EXPECT_EQ(drain(source).size(), data.size());
  source.rewind();
  cdr::Fingerprint fp;
  ASSERT_TRUE(source.next(fp));
  EXPECT_EQ(fp.members()[0], data[0].members()[0]);
}

TEST(CsvFileSource, MissingFileThrowsWithPath) {
  try {
    CsvFileSource source{"/nonexistent/stream.csv"};
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/nonexistent/stream.csv"),
              std::string::npos);
  }
}

TEST(CsvFileSource, MalformedRowReportsPathAndLine) {
  const test::TempDir dir;
  const std::string path = dir.file("bad.csv");
  std::ofstream{path} << "7,0,100,0,100,10,1,1\n7,0,100,oops,100,20,1,1\n";

  CsvFileSource source{path};
  cdr::Fingerprint fp;
  try {
    while (source.next(fp)) {
    }
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  }
}

TEST(Collect, MaterializesRemainderWithSourceName) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(8);
  MemorySource source{data};
  const cdr::FingerprintDataset collected = collect(source);
  EXPECT_EQ(collected.name(), data.name());
  EXPECT_EQ(test::dataset_to_csv(collected), test::dataset_to_csv(data));
}

TEST(MemorySink, CollectsGroupsUnderTheAnnouncedName) {
  MemorySink sink;
  EXPECT_EQ(sink.kind(), "memory");
  sink.begin("streamed");
  const cdr::FingerprintDataset data = test::grouped_io_dataset();
  for (const cdr::Fingerprint& fp : data.fingerprints()) sink.write(fp);
  sink.finish();
  EXPECT_EQ(sink.groups_written(), data.size());
  const cdr::FingerprintDataset out = std::move(sink).take_dataset();
  EXPECT_EQ(out.name(), "streamed");
  EXPECT_EQ(out.size(), data.size());
}

TEST(CsvFileSink, MatchesBulkWriterByteForByte) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(10);
  const std::string path = dir.file("sink.csv");
  {
    CsvFileSink sink{path};
    EXPECT_EQ(sink.kind(), "csv-file");
    sink.begin(data.name());
    for (const cdr::Fingerprint& fp : data.fingerprints()) sink.write(fp);
    sink.finish();
  }
  EXPECT_EQ(read_file(path), test::dataset_to_csv(data));
}

TEST(EngineStreaming, CollectFallbackRunsNonStreamingStrategiesFileToFile) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  const std::string in_path = dir.file("in.csv");
  const std::string out_path = dir.file("out.csv");
  cdr::write_dataset_file(in_path, data);

  const Engine engine;
  RunConfig config;  // "full": no streaming support -> collect fallback
  config.k = 2;
  CsvFileSource source{in_path};
  CsvFileSink sink{out_path};
  const auto result = engine.run(source, sink, config);
  ASSERT_TRUE(result.ok()) << result.error().message;

  const RunReport& report = result.value();
  EXPECT_EQ(report.source_kind, "csv-file");
  EXPECT_EQ(report.sink_kind, "csv-file");
  // Collect-then-run streams the source exactly once.
  ASSERT_EQ(report.pass_fingerprints.size(), 1u);
  EXPECT_EQ(report.pass_fingerprints[0], data.size());
  EXPECT_TRUE(report.anonymized.empty());  // the sink owns the output
  EXPECT_EQ(sink.groups_written(), report.counters.output_groups);
  EXPECT_GT(report.peak_rss_bytes, 0u);

  const cdr::FingerprintDataset published = test::read_dataset(out_path);
  EXPECT_TRUE(core::is_k_anonymous(published, 2));
}

TEST(EngineStreaming, ShardedStreamsInMultiplePassesAndStaysKAnonymous) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::string in_path = dir.file("in.csv");
  const std::string out_path = dir.file("out.csv");
  cdr::write_dataset_file(in_path, data);

  const Engine engine;
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  config.sharded.workers = 1;  // small batch budget -> several passes
  CsvFileSource source{in_path};
  CsvFileSink sink{out_path};
  const auto result = engine.run(source, sink, config);
  ASSERT_TRUE(result.ok()) << result.error().message;

  const RunReport& report = result.value();
  // Pass 0 is the planning scan; at least one batch pass follows, each
  // reading the whole source.
  ASSERT_GE(report.pass_fingerprints.size(), 3u);
  for (const std::uint64_t count : report.pass_fingerprints) {
    EXPECT_EQ(count, data.size());
  }
  EXPECT_EQ(report.counters.input_users, data.size());
  EXPECT_TRUE(
      core::is_k_anonymous(test::read_dataset(out_path), 2));
}

TEST(EngineStreaming, RunReadsTheWholeSourceWhateverWasReadBefore) {
  // A source that a caller has read from, or that an earlier run
  // drained, publishes what a fresh source of the same file does.
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(30);
  const std::string csv = dir.file("in.csv");
  const std::string bin = dir.file("in.glovebin");
  cdr::write_dataset_file(csv, data);
  cdr::write_dataset_glovebin_file(bin, data);

  const Engine engine;
  for (const std::string& strategy : engine.strategies()) {
    RunConfig config;
    config.strategy = strategy;
    config.sharded.tile_size_m = 5'000.0;
    config.sharded.max_shard_users = 16;
    const auto release = [&](DatasetSource& source) {
      MemorySink sink;
      const auto result = engine.run(source, sink, config);
      EXPECT_TRUE(result.ok()) << strategy << ": " << result.error().message;
      return std::pair{
          result.ok() ? result.value().counters.input_users : 0,
          test::dataset_to_csv(std::move(sink).take_dataset())};
    };
    for (const std::string& path : {csv, bin}) {
      const auto fresh = release(*open_dataset_source(path));
      EXPECT_EQ(fresh.first, data.total_users()) << strategy << ' ' << path;

      const std::unique_ptr<DatasetSource> source = open_dataset_source(path);
      cdr::Fingerprint fp;
      ASSERT_TRUE(source->next(fp));
      for (const char* when : {"after reading one fingerprint",
                               "on its second run"}) {
        const auto again = release(*source);
        EXPECT_EQ(again.first, fresh.first) << strategy << ' ' << path << ' '
                                            << when;
        EXPECT_TRUE(again.second == fresh.second)
            << strategy << ' ' << path << ' ' << when << ": release differs";
      }
    }
  }
}

TEST(EngineStreaming, EmptySourceIsInvalidDataset) {
  const test::TempDir dir;
  const std::string in_path = dir.file("empty.csv");
  std::ofstream{in_path} << "# just a comment\n";

  const Engine engine;
  for (const char* strategy : {"full", "sharded"}) {
    RunConfig config;
    config.strategy = strategy;
    CsvFileSource source{in_path};
    MemorySink sink;
    const auto result = engine.run(source, sink, config);
    ASSERT_FALSE(result.ok()) << strategy;
    EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset) << strategy;
  }
}

TEST(EngineStreaming, SourceShorterThanKIsInvalidDataset) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(3);
  const Engine engine;
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 100;
  MemorySource source{data};
  MemorySink sink;
  const auto result = engine.run(source, sink, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset);
}

TEST(EngineStreaming, LegacyOverloadMatchesStreamingBoundary) {
  // The dataset-in/dataset-out overload is a MemorySource/MemorySink
  // wrapper; both spellings must produce identical bytes and io echoes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(40);
  const Engine engine;
  for (const char* strategy : {"full", "sharded"}) {
    RunConfig config;
    config.strategy = strategy;
    config.k = 2;
    config.sharded.tile_size_m = 5'000.0;
    config.sharded.max_shard_users = 16;

    const auto legacy = engine.run(data, config);
    ASSERT_TRUE(legacy.ok()) << strategy << ": " << legacy.error().message;

    MemorySource source{data};
    MemorySink sink;
    const auto streamed = engine.run(source, sink, config);
    ASSERT_TRUE(streamed.ok()) << strategy;
    EXPECT_EQ(test::dataset_to_csv(std::move(sink).take_dataset()),
              test::dataset_to_csv(legacy.value().anonymized))
        << strategy;
    EXPECT_EQ(legacy.value().source_kind, "memory");
    EXPECT_EQ(legacy.value().sink_kind, "memory");
    EXPECT_EQ(legacy.value().pass_fingerprints,
              streamed.value().pass_fingerprints);
  }
}

}  // namespace
}  // namespace glove::api
