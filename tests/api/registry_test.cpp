// The strategy set is closed: the Engine runs exactly four strategies and
// lists them, sorted, for the CLI's --strategy enum and the
// unknown-strategy message.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "glove/api/engine.hpp"

namespace glove::api {
namespace {

TEST(Registry, StrategiesAreTheFourBuiltins) {
  const Engine engine;
  const std::vector<std::string> expected{"full", "incremental", "sharded",
                                          "w4m-baseline"};
  EXPECT_EQ(engine.strategies(), expected);
}

}  // namespace
}  // namespace glove::api
