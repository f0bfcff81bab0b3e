// GlovebinSource/GlovebinSink at the Engine's streaming run boundary:
// source/sink contracts (iteration, rewind, magic-based auto-detection,
// fail-at-begin sinks), CSV <-> glovebin converter parity, and the claim
// the format exists for — every strategy produces byte-identical groups
// whether it streams the CSV or the glovebin spelling of a dataset, while
// the glovebin index fast paths keep rewound passes from re-reading the
// whole file.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "common/temp_dir.hpp"
#include "glove/api/cli.hpp"
#include "glove/api/engine.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/binio.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"

namespace glove::api {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
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

TEST(GlovebinSource, StreamsRewindsAndReportsIdentity) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(20);
  const std::string path = dir.file("data.glovebin");
  // A small block size so the sequential scan crosses block boundaries.
  cdr::write_dataset_glovebin_file(path, data, /*block_fingerprints=*/4);

  GlovebinSource source{path};
  EXPECT_EQ(source.kind(), "glovebin-file");
  EXPECT_EQ(source.name(), data.name());  // the footer's, not the path
  ASSERT_TRUE(source.size_hint().has_value());
  EXPECT_EQ(*source.size_hint(), data.size());

  const auto first = drain(source);
  ASSERT_EQ(first.size(), data.size());
  source.rewind();
  const auto again = drain(source);
  ASSERT_EQ(again.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(again[i].members()[0], data[i].members()[0]) << i;
  }
}

TEST(OpenDatasetSource, SniffsMagicBytesNotExtensions) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::grouped_io_dataset();

  // A glovebin payload deliberately named .csv: the sniffer must pick the
  // binary source.
  const std::string disguised = dir.file("data.csv");
  cdr::write_dataset_glovebin_file(disguised, data);
  EXPECT_EQ(open_dataset_source(disguised)->kind(), "glovebin-file");

  const std::string plain = dir.file("plain.glovebin");
  cdr::write_dataset_file(plain, data);
  EXPECT_EQ(open_dataset_source(plain)->kind(), "csv-file");
}

TEST(OpenDatasetSource, UnnamedDatasetReadsBackUnnamedFromBothFormats) {
  const test::TempDir dir;
  cdr::FingerprintDataset data = test::grouped_io_dataset();
  data.set_name("");
  cdr::write_dataset_file(dir.file("u.csv"), data);
  cdr::write_dataset_glovebin_file(dir.file("u.glovebin"), data);
  EXPECT_EQ(open_dataset_source(dir.file("u.csv"))->name(), "");
  EXPECT_EQ(open_dataset_source(dir.file("u.glovebin"))->name(), "");
}

TEST(MakeDatasetSink, PicksFormatByExtensionOrOverride) {
  const test::TempDir dir;
  EXPECT_EQ(make_dataset_sink(dir.file("out.glovebin"))->kind(),
            "glovebin-file");
  EXPECT_EQ(make_dataset_sink(dir.file("out.csv"))->kind(), "csv-file");
  EXPECT_EQ(make_dataset_sink(dir.file("out.csv"), "glovebin")->kind(),
            "glovebin-file");
  EXPECT_EQ(make_dataset_sink(dir.file("out.glovebin"), "csv")->kind(),
            "csv-file");
  EXPECT_THROW((void)make_dataset_sink(dir.file("out.bin"), "parquet"),
               std::invalid_argument);
}

TEST(GlovebinSink, MatchesBulkWriterByteForByte) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(10);
  const std::string incremental = dir.file("sink.glovebin");
  {
    GlovebinSink sink{incremental};
    EXPECT_EQ(sink.kind(), "glovebin-file");
    sink.begin(data.name());
    for (const cdr::Fingerprint& fp : data.fingerprints()) sink.write(fp);
    sink.finish();
  }
  const std::string bulk = dir.file("bulk.glovebin");
  cdr::write_dataset_glovebin_file(bulk, data);
  EXPECT_EQ(read_file(incremental), read_file(bulk));
}

TEST(FileSinks, UnwritableTargetFailsAtBeginWithPath) {
  // /dev/full opens fine but every write fails — exactly the case the
  // begin() stream checks exist for: surface the bad target at run start,
  // not after hours of streaming.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP();
  {
    CsvFileSink sink{"/dev/full"};
    try {
      sink.begin("doomed");
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
  {
    GlovebinSink sink{"/dev/full"};
    EXPECT_THROW(sink.begin("doomed"), std::runtime_error);
  }
}

TEST(ConvertDatasetFile, CsvGlovebinCsvRoundTripIsByteIdentical) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(25);
  const std::string csv_in = dir.file("in.csv");
  const std::string bin = dir.file("mid.glovebin");
  const std::string csv_out = dir.file("out.csv");
  cdr::write_dataset_file(csv_in, data);

  const ConvertStats to_bin = convert_dataset_file(csv_in, bin);
  EXPECT_EQ(to_bin.fingerprints, data.size());
  EXPECT_EQ(to_bin.samples, data.total_samples());
  EXPECT_TRUE(cdr::is_glovebin_file(bin));

  const ConvertStats to_csv = convert_dataset_file(bin, csv_out);
  EXPECT_EQ(to_csv.fingerprints, data.size());
  // The dataset name rides the glovebin footer (the source's name), so
  // even the CSV header comment survives the round trip.
  EXPECT_EQ(read_file(csv_out), read_file(csv_in));
}

/// Streams `path` through the Engine into a MemorySink and returns the
/// output dataset.
cdr::FingerprintDataset run_streamed(const Engine& engine,
                                     const RunConfig& config,
                                     const std::string& path,
                                     RunReport* report_out = nullptr) {
  const auto source = open_dataset_source(path);
  MemorySink sink;
  auto result = engine.run(*source, sink, config);
  EXPECT_TRUE(result.ok()) << config.strategy << ": "
                           << result.error().message;
  if (report_out != nullptr) *report_out = std::move(result).value();
  return std::move(sink).take_dataset();
}

TEST(GlovebinParity, EveryStrategyMatchesTheCsvSpellingByteForByte) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::string csv = dir.file("data.csv");
  const std::string bin = dir.file("data.glovebin");
  cdr::write_dataset_file(csv, data);
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/8);

  const Engine engine;
  for (const std::string& strategy : engine.strategies()) {
    RunConfig config;
    config.strategy = strategy;
    config.k = 2;
    config.sharded.tile_size_m = 5'000.0;
    config.sharded.max_shard_users = 16;
    config.sharded.workers = 1;
    const cdr::FingerprintDataset from_csv =
        run_streamed(engine, config, csv);
    const cdr::FingerprintDataset from_bin =
        run_streamed(engine, config, bin);
    EXPECT_EQ(test::dataset_to_csv(from_bin), test::dataset_to_csv(from_csv))
        << strategy;
  }
}

TEST(GlovebinParity, ReleaseFollowsTheContentNotThePathOrFormat) {
  // One dataset stored as a/x.csv and as b/y.glovebin: a sharded run from
  // each, file to file, publishes the same bytes, line 1 included, and
  // the two reports name the same dataset.
  const test::TempDir dir;
  std::filesystem::create_directory(dir.file("a"));
  std::filesystem::create_directory(dir.file("b"));
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  const std::string csv = dir.file("a/x.csv");
  const std::string bin = dir.file("b/y.glovebin");
  cdr::write_dataset_file(csv, data);
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/8);

  const Engine engine;
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  std::vector<std::string> releases;
  std::vector<std::string> names;
  for (const std::string& input : {csv, bin}) {
    const std::string output = input + ".release.csv";
    const auto source = open_dataset_source(input);
    {
      CsvFileSink sink{output};
      const auto result = engine.run(*source, sink, config);
      ASSERT_TRUE(result.ok()) << input << ": " << result.error().message;
      names.push_back(result.value().dataset_name);
    }
    releases.push_back(read_file(output));
  }
  EXPECT_EQ(names[0], data.name());
  EXPECT_EQ(names[1], names[0]);
  EXPECT_EQ(releases[0].substr(0, releases[0].find('\n')),
            "# glove fingerprint dataset: " + data.name() + "-sharded-k2");
  EXPECT_EQ(releases[1], releases[0]);
}

TEST(GlovebinParity, BorderedShardedStreamingAcrossBudgetsAndWorkers) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  const std::string csv = dir.file("data.csv");
  const std::string bin = dir.file("data.glovebin");
  cdr::write_dataset_file(csv, data);
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/8);

  const Engine engine;
  for (const std::size_t budget : {12u, 40u}) {
    for (const std::size_t workers : {1u, 3u}) {
      RunConfig config;
      config.strategy = kStrategySharded;
      config.k = 2;
      config.sharded.tile_size_m = 5'000.0;
      config.sharded.max_shard_users = budget;
      config.sharded.workers = workers;
      const std::string label =
          "budget=" + std::to_string(budget) +
          " workers=" + std::to_string(workers);
      const cdr::FingerprintDataset from_csv =
          run_streamed(engine, config, csv);
      const cdr::FingerprintDataset from_bin =
          run_streamed(engine, config, bin);
      EXPECT_EQ(test::dataset_to_csv(from_bin),
                test::dataset_to_csv(from_csv))
          << label;
      EXPECT_TRUE(core::is_k_anonymous(from_bin, 2)) << label;
    }
  }
}

TEST(GlovebinParity, ShardedRunReportsBlockSeekIoStats) {
  const test::TempDir dir;
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  const std::string bin = dir.file("data.glovebin");
  cdr::write_dataset_glovebin_file(bin, data, /*block_fingerprints=*/4);

  const Engine engine;
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 2;
  config.sharded.tile_size_m = 5'000.0;
  config.sharded.max_shard_users = 16;
  config.sharded.workers = 1;
  RunReport report;
  (void)run_streamed(engine, config, bin, &report);

  EXPECT_EQ(report.source_kind, "glovebin-file");
  EXPECT_GT(report.file_blocks, 0u);
  EXPECT_GT(report.bytes_mapped, 0u);
  // One pass_blocks entry per pass; the planning pass is served from the
  // footer index alone.
  ASSERT_EQ(report.pass_blocks.size(), report.pass_fingerprints.size());
  ASSERT_GE(report.pass_blocks.size(), 2u);
  EXPECT_EQ(report.pass_blocks[0], 0u);
  for (std::size_t i = 1; i < report.pass_blocks.size(); ++i) {
    EXPECT_GT(report.pass_blocks[i], 0u) << "pass " << i;
  }
  EXPECT_EQ(report.blocks_read,
            std::accumulate(report.pass_blocks.begin(),
                            report.pass_blocks.end(), std::uint64_t{0}));
  // Materialization passes fetch subsets, so they report subset sizes —
  // strictly smaller than the planning pass's full count.
  for (std::size_t i = 1; i < report.pass_fingerprints.size(); ++i) {
    EXPECT_LT(report.pass_fingerprints[i], report.pass_fingerprints[0])
        << "pass " << i;
  }
}

TEST(GlovebinSource, CorruptPayloadSurfacesAsInvalidDataset) {
  const test::TempDir dir;
  const std::string bin = dir.file("data.glovebin");
  cdr::write_dataset_glovebin_file(bin, test::small_synth_dataset(10));

  // Flip a byte in the first record's member count region: structural
  // validation at open stays happy (footer intact), decode fails.
  std::string bytes = read_file(bin);
  bytes[16] = static_cast<char>(bytes[16] ^ 0x7f);
  std::ofstream{bin, std::ios::binary | std::ios::trunc}
      << bytes;

  const Engine engine;
  RunConfig config;
  config.strategy = kStrategySharded;
  config.k = 2;
  GlovebinSource source{bin};
  MemorySink sink;
  const auto result = engine.run(source, sink, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kInvalidDataset);
  EXPECT_NE(result.error().message.find(bin), std::string::npos)
      << result.error().message;
}

}  // namespace
}  // namespace glove::api
