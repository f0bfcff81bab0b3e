// The sharded streaming core: a text-backed source (parse-on-every-pass,
// like the file source) must reproduce an in-memory api::MemorySource byte
// for byte, batching must not change the output, per-pass accounting must
// add up, and a source that changes size between passes must be rejected.

#include "glove/shard/stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/golden.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/io.hpp"
#include "glove/core/glove.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/shard/planner.hpp"
#include "glove/shard/tiling.hpp"
#include "glove/synth/generator.hpp"

namespace glove::shard {
namespace {

using api::DatasetSource;
using api::MemorySource;

ShardConfig small_config() {
  ShardConfig config;
  config.tile_size_m = 5'000.0;
  config.max_shard_users = 16;
  config.halo_m = 500.0;
  return config;
}

/// Streams fingerprints out of serialized CSV text, re-parsing on every
/// pass — the unit-test stand-in for CsvFileSource.
class TextStream final : public DatasetSource {
 public:
  explicit TextStream(std::string text) : text_{std::move(text)} { rewind(); }

  [[nodiscard]] std::string_view kind() const noexcept override {
    return "text";
  }
  [[nodiscard]] std::string name() const override { return "text"; }
  bool next(cdr::Fingerprint& fingerprint) override {
    return reader_->next(fingerprint);
  }
  void rewind() override {
    in_ = std::istringstream{text_};
    reader_.emplace(in_);
  }

 private:
  std::string text_;
  std::istringstream in_;
  std::optional<cdr::DatasetStreamReader> reader_;
};

/// Runs the sharded pipeline with GLOVE's default knobs unless `glove`
/// names others.
std::vector<cdr::Fingerprint> run_stream(
    DatasetSource& stream, const ShardConfig& config,
    StreamShardedResult* result_out, const core::GloveConfig& glove = {}) {
  std::vector<cdr::Fingerprint> groups;
  StreamShardedResult result = anonymize_sharded_stream(
      stream, glove, config,
      [&](cdr::Fingerprint&& fp) { groups.push_back(std::move(fp)); });
  if (result_out != nullptr) *result_out = std::move(result);
  return groups;
}

std::uint64_t counter_delta(const obs::MetricsSnapshot& before,
                            const std::string& name) {
  for (const auto& [key, value] :
       obs::counter_delta(before, obs::snapshot_metrics())) {
    if (key == name) return value;
  }
  return 0;
}

TEST(ShardStream, TextBackedStreamMatchesInMemoryPipeline) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);

  const ShardConfig config = small_config();
  MemorySource memory{data};
  StreamShardedResult reference;
  std::vector<cdr::Fingerprint> reference_groups =
      run_stream(memory, config, &reference);

  TextStream stream{serialized.str()};
  StreamShardedResult streamed;
  std::vector<cdr::Fingerprint> groups =
      run_stream(stream, config, &streamed);

  EXPECT_EQ(test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)}),
            test::dataset_to_csv(
                cdr::FingerprintDataset{std::move(reference_groups)}));
  EXPECT_EQ(streamed.stats.glove.output_groups,
            reference.stats.glove.output_groups);
  EXPECT_EQ(streamed.stats.deferred_fingerprints,
            reference.stats.deferred_fingerprints);
  EXPECT_EQ(streamed.stats.shards, reference.stats.shards);
}

TEST(ShardStream, BatchBoundariesDoNotChangeTheOutput) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  std::string reference;
  // workers drives the batch budget (max_shard_users x workers), so these
  // runs cover one-shard-per-pass up to several-shards-per-pass.
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ShardConfig config = small_config();
    config.workers = workers;
    TextStream stream{serialized.str()};
    StreamShardedResult result;
    std::vector<cdr::Fingerprint> groups = run_stream(stream, config, &result);
    const std::string csv =
        test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)});
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << "workers=" << workers;
    }
    // Every pass reads the whole stream: one planning scan + >= 1 batch.
    ASSERT_GE(result.pass_fingerprints.size(), 2u) << "workers=" << workers;
    for (const std::uint64_t count : result.pass_fingerprints) {
      EXPECT_EQ(count, data.size());
    }
  }
}

TEST(ShardStream, SmallBudgetRunsManyPassesLargeBudgetFew) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(80);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig tight = small_config();
  tight.workers = 1;  // budget = max_shard_users
  TextStream stream_a{serialized.str()};
  const obs::MetricsSnapshot tight_before = obs::snapshot_metrics();
  StreamShardedResult tight_result;
  (void)run_stream(stream_a, tight, &tight_result);
  const std::uint64_t tight_batches =
      counter_delta(tight_before, "stream.shard_batches");

  ShardConfig wide = small_config();
  wide.workers = 64;  // budget swallows the whole plan
  TextStream stream_b{serialized.str()};
  const obs::MetricsSnapshot wide_before = obs::snapshot_metrics();
  StreamShardedResult wide_result;
  (void)run_stream(stream_b, wide, &wide_result);

  EXPECT_GT(tight_result.pass_fingerprints.size(),
            wide_result.pass_fingerprints.size());
  // The planning scan, then one pass per batch.
  EXPECT_EQ(tight_result.pass_fingerprints.size(), 1 + tight_batches);
  EXPECT_EQ(wide_result.pass_fingerprints.size(),
            1 + counter_delta(wide_before, "stream.shard_batches"));
}

TEST(ShardStream, MaterializedSourceSkipsRestreamingButMatchesOutput) {
  // An in-memory MemorySource advertises its backing dataset, so the
  // pipeline reads by index: one reported (logical) pass, identical
  // bytes to the text-backed multi-pass run.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const ShardConfig config = small_config();

  MemorySource memory_stream{data};
  StreamShardedResult memory_result;
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory_stream, config, &memory_result);
  EXPECT_EQ(memory_result.pass_fingerprints,
            (std::vector<std::uint64_t>{data.size()}));

  TextStream text_stream{serialized.str()};
  StreamShardedResult text_result;
  std::vector<cdr::Fingerprint> text_groups =
      run_stream(text_stream, config, &text_result);
  EXPECT_GE(text_result.pass_fingerprints.size(), 2u);
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(text_groups)}));
}

TEST(ShardStream, AdaptiveTileSizeResolvesFromTheScanPass) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  ShardConfig config = small_config();
  config.tile_size_m = 0.0;  // adaptive
  MemorySource stream{data};
  StreamShardedResult result;
  std::vector<cdr::Fingerprint> groups = run_stream(stream, config, &result);
  EXPECT_GE(result.stats.tile_size_m, 1'000.0);
  EXPECT_LE(result.stats.tile_size_m, 200'000.0);
  EXPECT_FALSE(groups.empty());

  // Explicitly configuring the resolved size reproduces the run exactly.
  ShardConfig pinned = small_config();
  pinned.tile_size_m = result.stats.tile_size_m;
  MemorySource again{data};
  std::vector<cdr::Fingerprint> pinned_groups =
      run_stream(again, pinned, nullptr);
  EXPECT_EQ(test::dataset_to_csv(
                cdr::FingerprintDataset{std::move(pinned_groups)}),
            test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups)}));
}

TEST(ShardStream, BorderedRunsMatchTheGoldenForEveryWorkerCount) {
  // The bordered reconciliation (deferred leftovers materialized with
  // the batches and run as jobs) must reproduce the blessed golden for
  // every worker count — the worker count moves batch boundaries, never
  // bytes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  for (const std::size_t workers : {1u, 2u, 4u, 64u}) {
    ShardConfig config = small_config();
    config.workers = workers;
    TextStream stream{serialized.str()};
    const obs::MetricsSnapshot before = obs::snapshot_metrics();
    StreamShardedResult result;
    std::vector<cdr::Fingerprint> groups = run_stream(stream, config, &result);
    test::expect_matches_golden(
        "sharded_synth60_k2.csv",
        test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups),
                                                     "civ-like-sharded-k2"}));
    EXPECT_GT(result.stats.deferred_fingerprints, 0u) << "workers=" << workers;
    EXPECT_GT(result.stats.reconciled_groups, 0u) << "workers=" << workers;
    EXPECT_EQ(result.pass_fingerprints.size(),
              1 + counter_delta(before, "stream.shard_batches"))
        << "workers=" << workers;
  }
}

TEST(ShardStream, AbsorbedTailMatchesGoldenFromEveryStream) {
  // Fewer than k deferred sub-k leftovers under kMergeIntoNearest: the
  // tail is absorbed into the nearest finalized group, so every group is
  // held until the run ends.  The re-parsing text stream and the
  // in-memory dataset must both publish the blessed bytes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(40);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  const ShardConfig config = small_config();
  const core::GloveConfig glove = test::glove_config(4);
  ASSERT_EQ(glove.leftover_policy, core::LeftoverPolicy::kMergeIntoNearest);

  TextStream text_stream{serialized.str()};
  MemorySource memory_stream{data};
  for (DatasetSource* stream :
       {static_cast<DatasetSource*>(&text_stream),
        static_cast<DatasetSource*>(&memory_stream)}) {
    StreamShardedResult result;
    std::vector<cdr::Fingerprint> groups =
        run_stream(*stream, config, &result, glove);
    EXPECT_GT(result.stats.absorbed_leftovers, 0u);
    EXPECT_LT(result.stats.deferred_fingerprints, glove.k);
    EXPECT_GE(result.stats.shards, 2u);
    test::expect_matches_golden(
        "sharded_absorb_synth40_k4.csv",
        test::dataset_to_csv(cdr::FingerprintDataset{std::move(groups),
                                                     "civ-like-sharded-k4"}));
  }
}

/// A wide halo over small shards defers enough sub-k fingerprints for
/// several reconcile GLOVE chunks.
ShardConfig many_chunks_config() {
  ShardConfig config = small_config();
  config.max_shard_users = 8;
  config.halo_m = 2'000.0;
  return config;
}

/// Begin and end timestamps per span name of a rendered trace (spans of
/// one name never nest in each other here, so the counts pair up).
using SpanStamps = std::map<std::string, std::vector<double>>;
std::pair<SpanStamps, SpanStamps> span_stamps(const std::string& doc) {
  SpanStamps begins;
  SpanStamps ends;
  const std::regex event{
      R"re(\{"name": "([a-z0-9_.]+)","cat": "glove",)re"
      R"re("ph": "([BE])","ts": ([0-9.eE+-]+))re"};
  for (std::sregex_iterator it{doc.begin(), doc.end(), event}, end;
       it != end; ++it) {
    auto& stamps = (*it)[2] == "B" ? begins : ends;
    stamps[(*it)[1]].push_back(std::stod((*it)[3]));
  }
  return {std::move(begins), std::move(ends)};
}

/// Whether `ts` lies within one of the `name` spans (spans the caller's
/// thread opened one after another, so their begins and ends pair up).
bool inside_a(SpanStamps& begins, SpanStamps& ends, const std::string& name,
              double ts) {
  const std::vector<double>& from = begins[name];
  const std::vector<double>& to = ends[name];
  for (std::size_t i = 0; i < from.size() && i < to.size(); ++i) {
    if (from[i] <= ts && ts <= to[i]) return true;
  }
  return false;
}

TEST(ShardStream, PassAccountingAddsUp) {
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);

  // Tightest budget (one worker, so max_shard_users fingerprints per
  // batch): every reconcile chunk gets a batch, and so a rewound pass, of
  // its own.
  ShardConfig tight = many_chunks_config();
  tight.workers = 1;
  TextStream stream{serialized.str()};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  StreamShardedResult tight_result;
  (void)run_stream(stream, tight, &tight_result);
  ASSERT_GE(counter_delta(before, "stream.reconcile_chunks"), 2u);
  // The planning scan, then one pass per batch, every pass streaming the
  // full dataset.
  EXPECT_EQ(tight_result.pass_fingerprints.size(),
            1 + counter_delta(before, "stream.shard_batches"));
  for (const std::uint64_t count : tight_result.pass_fingerprints) {
    EXPECT_EQ(count, data.size());
  }

  // Materialized sources fetch every member by index: no rewound passes.
  MemorySource memory_stream{data};
  StreamShardedResult memory_result;
  (void)run_stream(memory_stream, tight, &memory_result);
  EXPECT_EQ(memory_result.pass_fingerprints,
            (std::vector<std::uint64_t>{data.size()}));
}

TEST(ShardStream, TraceShowsEveryReconcileChunkInsideABatch) {
  // Reconcile chunks run as jobs, on the job pool's threads, inside the
  // batches the shard jobs run in.  The trace must show one
  // stream.reconcile.chunk span per chunk, each within a
  // stream.shard_batch span, one such span per batch, and no
  // stream.reconcile span: that one times only the absorb tail.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = many_chunks_config();
  config.workers = 2;
  TextStream stream{serialized.str()};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  obs::start_tracing();
  StreamShardedResult result;
  (void)run_stream(stream, config, &result);
  auto [begins, ends] = span_stamps(obs::stop_tracing_and_render());
  const auto counter = [&](const std::string& name) {
    return counter_delta(before, name);
  };

  const std::uint64_t chunks = counter("stream.reconcile_chunks");
  ASSERT_GE(chunks, 2u);
  EXPECT_EQ(begins["stream.reconcile.chunk"].size(), chunks);
  EXPECT_EQ(ends["stream.reconcile.chunk"].size(), chunks);
  for (const double ts : begins["stream.reconcile.chunk"]) {
    EXPECT_TRUE(inside_a(begins, ends, "stream.shard_batch", ts));
  }
  for (const double ts : ends["stream.reconcile.chunk"]) {
    EXPECT_TRUE(inside_a(begins, ends, "stream.shard_batch", ts));
  }
  EXPECT_TRUE(begins["stream.reconcile"].empty());
  EXPECT_EQ(result.stats.reconcile_seconds, 0.0);
  EXPECT_EQ(begins["stream.shard_batch"].size(),
            counter("stream.shard_batches"));
  EXPECT_EQ(begins["stream.shard"].size(), counter("stream.shards_run"));
  // Every pass is the planning scan or a batch.
  EXPECT_EQ(result.pass_fingerprints.size(),
            1 + counter("stream.shard_batches"));
}

TEST(ShardStream, WideBudgetRunsTheReconcileChunksInTheShardBatch) {
  // One batch rule for every source: a budget that swallows the plan
  // gives a re-read source a single batch, its reconcile chunks beside
  // its shard jobs, so the run reads the source twice and publishes the
  // materialized run's bytes.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = many_chunks_config();
  config.workers = 64;

  MemorySource memory_stream{data};
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory_stream, config, nullptr);

  TextStream text_stream{serialized.str()};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  obs::start_tracing();
  StreamShardedResult text_result;
  std::vector<cdr::Fingerprint> text_groups =
      run_stream(text_stream, config, &text_result);
  auto [begins, ends] = span_stamps(obs::stop_tracing_and_render());

  EXPECT_EQ(text_result.pass_fingerprints.size(), 2u);
  EXPECT_EQ(counter_delta(before, "stream.shard_batches"), 1u);
  ASSERT_EQ(begins["stream.shard_batch"].size(), 1u);
  ASSERT_EQ(ends["stream.shard_batch"].size(), 1u);
  ASSERT_GE(begins["stream.reconcile.chunk"].size(), 2u);
  ASSERT_FALSE(begins["stream.shard"].empty());
  for (const std::string name : {"stream.shard", "stream.reconcile.chunk"}) {
    for (const double ts : begins[name]) {
      EXPECT_TRUE(inside_a(begins, ends, "stream.shard_batch", ts)) << name;
    }
    for (const double ts : ends[name]) {
      EXPECT_TRUE(inside_a(begins, ends, "stream.shard_batch", ts)) << name;
    }
  }
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(text_groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}));
}

TEST(ShardStream, MaterializedSourceRunsEveryUnitInOneBatch) {
  // A materialized source is never re-streamed, so its budget is the
  // whole unit list: the shard jobs and the reconcile chunks share one
  // batch (one stream.shard_batch span holding every chunk), and the
  // groups match the multi-batch text-backed run byte for byte.
  const cdr::FingerprintDataset data = test::small_synth_dataset(60);
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = many_chunks_config();
  config.workers = 2;

  TextStream text_stream{serialized.str()};
  const obs::MetricsSnapshot text_before = obs::snapshot_metrics();
  StreamShardedResult text_result;
  std::vector<cdr::Fingerprint> text_groups =
      run_stream(text_stream, config, &text_result);
  const std::uint64_t text_batches =
      counter_delta(text_before, "stream.shard_batches");
  ASSERT_GE(text_batches, 2u);
  EXPECT_EQ(text_result.pass_fingerprints.size(), 1 + text_batches);

  MemorySource memory_stream{data};
  const obs::MetricsSnapshot before = obs::snapshot_metrics();
  obs::start_tracing();
  StreamShardedResult memory_result;
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory_stream, config, &memory_result);
  auto [begins, ends] = span_stamps(obs::stop_tracing_and_render());

  EXPECT_EQ(counter_delta(before, "stream.shard_batches"), 1u);
  const std::uint64_t chunks = counter_delta(before, "stream.reconcile_chunks");
  ASSERT_GE(chunks, 2u);
  ASSERT_EQ(begins["stream.shard_batch"].size(), 1u);
  ASSERT_EQ(ends["stream.shard_batch"].size(), 1u);
  EXPECT_EQ(memory_result.pass_fingerprints,
            (std::vector<std::uint64_t>{data.size()}));
  EXPECT_EQ(begins["stream.reconcile.chunk"].size(), chunks);
  for (const double ts : begins["stream.reconcile.chunk"]) {
    EXPECT_GE(ts, begins["stream.shard_batch"][0]);
  }
  for (const double ts : ends["stream.reconcile.chunk"]) {
    EXPECT_LE(ts, ends["stream.shard_batch"][0]);
  }
  EXPECT_EQ(memory_result.stats.reconciled_groups,
            text_result.stats.reconciled_groups);
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(text_groups)}));
}

TEST(ShardStream, PassThroughsKeepTheirPlaceInTheMaterializedBatch) {
  // Re-anonymizing a partly published dataset: deferred fingerprints that
  // already hide k users pass through between the shard groups and the
  // reconcile groups.  In the single batch of a materialized source they
  // must leave at that same place, as in the text-backed run.
  const cdr::FingerprintDataset raw = test::small_synth_dataset(80);
  core::GloveConfig pairs;
  pairs.k = 2;
  const std::vector<cdr::Fingerprint> first_users{
      raw.fingerprints().begin(), raw.fingerprints().begin() + 30};
  std::vector<cdr::Fingerprint> fingerprints = std::move(
      core::anonymize(cdr::FingerprintDataset{first_users}, pairs)
          .anonymized.mutable_fingerprints());
  fingerprints.insert(fingerprints.end(), raw.fingerprints().begin() + 30,
                      raw.fingerprints().end());
  const cdr::FingerprintDataset data{std::move(fingerprints), "partly-k2"};
  std::ostringstream serialized;
  cdr::write_dataset_csv(serialized, data);
  ShardConfig config = many_chunks_config();
  config.workers = 2;

  // The plan defers at least one fingerprint that already hides k users.
  const Tiling tiling =
      build_tiling(data, config.tile_size_m, config.max_shard_users);
  const BorderSplit split = split_borders(
      tiling, plan_shards(tiling, pairs.k, config.max_shard_users),
      config.halo_m, pairs.k);
  bool passthrough = false;
  for (const std::vector<std::uint32_t>& deferred : split.deferred) {
    for (const std::uint32_t id : deferred) {
      passthrough |= data[id].group_size() >= pairs.k;
    }
  }
  ASSERT_TRUE(passthrough);

  MemorySource memory_stream{data};
  std::vector<cdr::Fingerprint> memory_groups =
      run_stream(memory_stream, config, nullptr);
  TextStream text_stream{serialized.str()};
  std::vector<cdr::Fingerprint> text_groups =
      run_stream(text_stream, config, nullptr);
  EXPECT_EQ(
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(memory_groups)}),
      test::dataset_to_csv(cdr::FingerprintDataset{std::move(text_groups)}));
}

TEST(ShardStream, StreamThatShrinksBetweenPassesIsRejected) {
  /// Yields the dataset on the first pass, then one fingerprint fewer on
  /// every later pass — a file truncated mid-run.
  class ShrinkingStream final : public DatasetSource {
   public:
    explicit ShrinkingStream(const cdr::FingerprintDataset& data)
        : data_{&data} {}
    [[nodiscard]] std::string_view kind() const noexcept override {
      return "shrinking";
    }
    [[nodiscard]] std::string name() const override { return "shrinking"; }
    bool next(cdr::Fingerprint& fingerprint) override {
      const std::size_t limit =
          passes_ == 0 ? data_->size() : data_->size() - 1;
      if (cursor_ >= limit) return false;
      fingerprint = (*data_)[cursor_++];
      return true;
    }
    void rewind() override {
      cursor_ = 0;
      ++passes_;
    }

   private:
    const cdr::FingerprintDataset* data_;
    std::size_t cursor_ = 0;
    std::size_t passes_ = 0;
  };

  const cdr::FingerprintDataset data = test::small_synth_dataset(40);
  ShrinkingStream stream{data};
  EXPECT_THROW((void)run_stream(stream, small_config(), nullptr),
               util::DatasetError);
}

TEST(ShardStream, EmptyAndSubKStreamsRaiseDatasetError) {
  const cdr::FingerprintDataset empty;
  MemorySource empty_stream{empty};
  EXPECT_THROW((void)run_stream(empty_stream, small_config(), nullptr),
               util::DatasetError);

  const cdr::FingerprintDataset three = test::small_synth_dataset(3);
  ShardConfig demanding = small_config();
  demanding.max_shard_users = 128;  // keep the *config* itself valid
  MemorySource short_stream{three};
  EXPECT_THROW((void)run_stream(short_stream, demanding, nullptr,
                                test::glove_config(100)),
               util::DatasetError);
}

TEST(ShardStream, NonFiniteHaloIsRefusedAsConfigNotBlamedOnTheData) {
  // The stream checks both of its configs before it reads the source: a
  // NaN halo used to pass its own weaker check and reach the border test,
  // which failed as util::DatasetError ("fingerprint 6 lies off the tile
  // grid").
  const cdr::FingerprintDataset data =
      synth::generate_dataset(synth::civ_like(400, 7));
  ShardConfig config;
  config.max_shard_users = 50;
  config.halo_m = std::numeric_limits<double>::quiet_NaN();
  MemorySource source{data};
  try {
    (void)run_stream(source, config, nullptr);
    FAIL() << "a NaN halo ran";
  } catch (const util::DatasetError& e) {
    FAIL() << "blamed on the data: " << e.what();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "sharded.halo_m must be finite and non-negative");
  }
}

}  // namespace
}  // namespace glove::shard
