// glove::Engine — the single entry point for anonymization runs.  The
// primary boundary is streaming — source in, sink out — so datasets
// larger than RAM flow file-to-file:
//
//   glove::Engine engine;
//   glove::api::RunConfig config;
//   config.strategy = "sharded";
//   config.k = 5;
//   glove::api::CsvFileSource source{"trace.csv"};
//   glove::api::CsvFileSink sink{"anonymized.csv"};
//   auto result = engine.run(source, sink, config);
//   if (!result.ok()) { /* typed error */ }
//   // result.value().pass_fingerprints: fingerprints streamed per pass
//
// The classic dataset-in/dataset-out overload is a thin
// MemorySource/MemorySink wrapper over the same path.  Strategies that
// support streaming (sharded) consume the source in bounded memory;
// everything else transparently collects the source first.  One call
// drives every registered Anonymizer behind a uniform validated config and
// a serializable run report.

#ifndef GLOVE_API_ENGINE_HPP
#define GLOVE_API_ENGINE_HPP

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "glove/api/anonymizer.hpp"
#include "glove/api/config.hpp"
#include "glove/api/error.hpp"
#include "glove/api/report.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/dataset.hpp"

namespace glove::api {

class Engine {
 public:
  /// Constructs an Engine with the four built-in strategies registered:
  /// full, sharded, incremental, w4m-baseline.
  Engine();

  Engine(Engine&&) noexcept = default;
  Engine& operator=(Engine&&) noexcept = default;

  /// Primary run boundary: streams fingerprints from `source` and pushes
  /// finalized groups to `sink`.  Never throws on bad input — that comes
  /// back as a typed error, a bad dataset as kInvalidDataset from every
  /// strategy and run shape; the returned report's `anonymized` dataset
  /// is empty (the sink owns the output) and its source/sink kinds and
  /// per-pass counts describe the data plane.  On error the sink may hold
  /// partial output (a file sink's bytes stay on disk); treat it as
  /// invalid unless the run succeeded.
  [[nodiscard]] Result<RunReport> run(DatasetSource& source, DatasetSink& sink,
                                      const RunConfig& config) const;

  /// Classic dataset-in/dataset-out overload: a MemorySource/MemorySink
  /// wrapper over the streaming boundary.  The report's `anonymized`
  /// holds the output dataset; a failed run produces none.
  [[nodiscard]] Result<RunReport> run(const cdr::FingerprintDataset& data,
                                      const RunConfig& config) const;

  /// Registers (or replaces) a strategy under its name().  This is the
  /// drop-in point for future backends — callers keep calling run().
  void register_strategy(std::unique_ptr<Anonymizer> strategy);

  /// Registered strategy names, sorted.
  [[nodiscard]] std::vector<std::string> strategies() const;

  /// Looks up a strategy; nullptr when unknown.
  [[nodiscard]] const Anonymizer* find(std::string_view name) const;

 private:
  std::map<std::string, std::unique_ptr<Anonymizer>, std::less<>> registry_;
};

/// Registers the built-in strategies on `engine` (called by the Engine
/// constructor; exposed for tests that build a bare registry).
void register_builtin_strategies(Engine& engine);

}  // namespace glove::api

// The Engine is the library's front door; make the short spelling
// glove::Engine (and its companions) available as the issue/README use it.
namespace glove {
using api::Engine;
using api::RunConfig;
using api::RunReport;
}  // namespace glove

#endif  // GLOVE_API_ENGINE_HPP
