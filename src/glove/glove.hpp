// Umbrella header: the whole public API of the GLOVE library.
//
// Include granular headers ("glove/core/glove.hpp", ...) in code that
// cares about compile times; include this one for exploratory use.

#ifndef GLOVE_GLOVE_HPP
#define GLOVE_GLOVE_HPP

#include "glove/analysis/anonymizability.hpp"
#include "glove/analysis/descriptors.hpp"
#include "glove/analysis/entropy.hpp"
#include "glove/analysis/utility.hpp"
#include "glove/api/cli.hpp"
#include "glove/api/config.hpp"
#include "glove/api/engine.hpp"
#include "glove/api/error.hpp"
#include "glove/api/report.hpp"
#include "glove/api/sink.hpp"
#include "glove/api/source.hpp"
#include "glove/attack/linkage.hpp"
#include "glove/baseline/w4m.hpp"
#include "glove/cdr/builder.hpp"
#include "glove/cdr/dataset.hpp"
#include "glove/cdr/fingerprint.hpp"
#include "glove/cdr/io.hpp"
#include "glove/cdr/sample.hpp"
#include "glove/core/accuracy.hpp"
#include "glove/core/generalize.hpp"
#include "glove/core/glove.hpp"
#include "glove/core/incremental.hpp"
#include "glove/core/kgap.hpp"
#include "glove/core/merge.hpp"
#include "glove/core/partial.hpp"
#include "glove/core/scalability.hpp"
#include "glove/core/stretch.hpp"
#include "glove/geo/geo.hpp"
#include "glove/stats/json.hpp"
#include "glove/stats/stats.hpp"
#include "glove/stats/table.hpp"
#include "glove/synth/generator.hpp"
#include "glove/synth/network.hpp"
#include "glove/util/csv.hpp"
#include "glove/util/dataset_error.hpp"
#include "glove/util/flags.hpp"
#include "glove/util/mem.hpp"
#include "glove/util/parallel.hpp"
#include "glove/util/rng.hpp"
#include "glove/util/thread_pool.hpp"

#endif  // GLOVE_GLOVE_HPP
