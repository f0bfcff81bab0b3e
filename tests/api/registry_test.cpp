// Strategy registry: the five built-ins are registered, lookups work, and
// external strategies (the drop-in point for future distributed/streaming
// backends) can be added or replace built-ins without touching callers.

#include <gtest/gtest.h>

#include <memory>

#include "common/fixtures.hpp"
#include "glove/api/engine.hpp"

namespace glove::api {
namespace {

TEST(Registry, BuiltinStrategiesAreRegistered) {
  const Engine engine;
  const std::vector<std::string> names = engine.strategies();
  const std::vector<std::string> expected{"full", "incremental", "sharded",
                                          "w4m-baseline"};
  EXPECT_EQ(names, expected);  // strategies() returns sorted names
  for (const std::string& name : expected) {
    const Anonymizer* strategy = engine.find(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->name(), name);
    EXPECT_FALSE(strategy->description().empty()) << name;
  }
  EXPECT_EQ(engine.find("nope"), nullptr);
}

/// A minimal external backend: publishes the input unchanged (only valid
/// for already-anonymized data, but enough to prove the plug-in seam).
class IdentityStrategy final : public Anonymizer {
 public:
  std::string_view name() const noexcept override { return "identity"; }
  std::string_view description() const noexcept override {
    return "returns the input dataset unchanged";
  }
  StrategyOutcome run(const cdr::FingerprintDataset& data,
                      const RunConfig&) const override {
    StrategyOutcome outcome;
    outcome.anonymized = cdr::FingerprintDataset{
        {data.fingerprints().begin(), data.fingerprints().end()},
        data.name()};
    outcome.counters.input_users = data.total_users();
    outcome.counters.output_groups = data.size();
    return outcome;
  }
};

TEST(Registry, ExternalStrategyRunsThroughTheSameEntryPoint) {
  Engine engine;
  engine.register_strategy(std::make_unique<IdentityStrategy>());
  ASSERT_NE(engine.find("identity"), nullptr);

  RunConfig config;
  config.strategy = "identity";
  const cdr::FingerprintDataset data = test::paired_dataset();
  const auto result = engine.run(data, config);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result.value().anonymized.size(), data.size());
  EXPECT_EQ(result.value().strategy, "identity");
}

TEST(Registry, RegisteringExistingNameReplacesTheStrategy) {
  Engine engine;
  const std::size_t before = engine.strategies().size();

  // Replace "full" with an identity backend under the same name.
  struct NamedFull final : Anonymizer {
    std::string_view name() const noexcept override { return "full"; }
    std::string_view description() const noexcept override {
      return "replacement";
    }
    StrategyOutcome run(const cdr::FingerprintDataset& data,
                        const RunConfig&) const override {
      StrategyOutcome outcome;
      outcome.anonymized = cdr::FingerprintDataset{
          {data.fingerprints().begin(), data.fingerprints().end()},
          data.name()};
      return outcome;
    }
  };
  engine.register_strategy(std::make_unique<NamedFull>());
  EXPECT_EQ(engine.strategies().size(), before);
  EXPECT_EQ(engine.find("full")->description(), "replacement");
}

}  // namespace
}  // namespace glove::api
