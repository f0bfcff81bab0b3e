// RunConfig: the one configuration of every anonymization strategy the
// Engine can drive, built from the layer configs rather than mirroring
// them.  It is a core::GloveConfig (k, suppression, reshape, leftover
// policy, shared by every strategy; W4M reads only k) plus the strategy
// name and one section per strategy that needs more: `sharded` is the
// shard::ShardConfig the run hands to its layer, and `incremental` names
// the release to update.  The stretch effort's thresholds and weights
// (core/stretch.hpp) and W4M-LC's delta, trash fraction and chunk size
// (baseline/w4m.hpp) are the paper's constants, not knobs.  Each knob is
// declared, documented and defaulted once, in its layer's struct, and
// checked there (core::check_config, shard::check_config, and
// baseline::check_config for W4M's k); the Engine runs those checks
// before it reads any data, and a failing one is kInvalidConfig.

#ifndef GLOVE_API_CONFIG_HPP
#define GLOVE_API_CONFIG_HPP

#include <string>
#include <string_view>

#include "glove/cdr/dataset.hpp"
#include "glove/core/glove.hpp"
#include "glove/shard/config.hpp"

namespace glove::api {

/// The four strategy names, the whole set Engine::run dispatches on.
inline constexpr std::string_view kStrategyFull = "full";
inline constexpr std::string_view kStrategyIncremental = "incremental";
inline constexpr std::string_view kStrategyW4M = "w4m-baseline";
inline constexpr std::string_view kStrategySharded = "sharded";

/// A RunConfig is passed wherever a core::GloveConfig (or its
/// core::MergeOptions) is read.
struct RunConfig : core::GloveConfig {
  /// Strategy to run: one of the four names above (Engine::strategies()).
  std::string strategy{kStrategyFull};

  /// `sharded`'s decomposition and scheduler.
  shard::ShardConfig sharded;

  struct IncrementalSection {
    /// The already-published k-anonymized release; the run's input dataset
    /// is then the set of newcomers (single-user fingerprints).  When
    /// null, the run starts from an empty release and the newcomers are
    /// grouped among themselves.  The pointee must outlive the run.
    const cdr::FingerprintDataset* published = nullptr;
  } incremental;
};

}  // namespace glove::api

#endif  // GLOVE_API_CONFIG_HPP
