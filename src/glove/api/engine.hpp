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
// MemorySource/MemorySink wrapper over the same path.  The strategy set
// is closed: `config.strategy` names one of the four strategies, and the
// Engine dispatches on it.  `sharded` consumes the source in bounded
// memory; the other three collect the source first.

#ifndef GLOVE_API_ENGINE_HPP
#define GLOVE_API_ENGINE_HPP

#include <string>
#include <vector>

#include "glove/api/config.hpp"
#include "glove/api/error.hpp"
#include "glove/api/report.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/cdr/dataset.hpp"

namespace glove::api {

class Engine {
 public:
  /// Primary run boundary: streams fingerprints from `source` and pushes
  /// finalized groups to `sink`.  The configuration is checked before any
  /// data is read; then the source is rewound once, so a run reads the
  /// whole source whatever was read from it before.  Never throws on bad
  /// input — that comes back as a typed error, a bad dataset as
  /// kInvalidDataset from every strategy, in memory or streamed; the
  /// returned report's `anonymized` dataset is empty (the sink owns the
  /// output) and its source/sink kinds and per-pass counts describe the
  /// data plane.  On error the sink may hold partial output (a file
  /// sink's bytes stay on disk); treat it as invalid unless the run
  /// succeeded.
  [[nodiscard]] Result<RunReport> run(DatasetSource& source, DatasetSink& sink,
                                      const RunConfig& config) const;

  /// Classic dataset-in/dataset-out overload: a MemorySource/MemorySink
  /// wrapper over the streaming boundary.  The report's `anonymized`
  /// holds the output dataset; a failed run produces none.
  [[nodiscard]] Result<RunReport> run(const cdr::FingerprintDataset& data,
                                      const RunConfig& config) const;

  /// The strategy names, sorted: full, incremental, sharded, w4m-baseline.
  [[nodiscard]] std::vector<std::string> strategies() const;
};

}  // namespace glove::api

// The Engine is the library's front door; make the short spelling
// glove::Engine (and its companions) available as the README uses it.
namespace glove {
using api::Engine;
using api::RunConfig;
using api::RunReport;
}  // namespace glove

#endif  // GLOVE_API_ENGINE_HPP
