#include "glove/api/report.hpp"

#include <fstream>
#include <stdexcept>

namespace glove::api {

namespace {

std::string_view leftover_policy_name(core::LeftoverPolicy policy) {
  switch (policy) {
    case core::LeftoverPolicy::kMergeIntoNearest: return "merge-into-nearest";
    case core::LeftoverPolicy::kSuppress: return "suppress";
  }
  return "merge-into-nearest";
}

}  // namespace

double find_metric(const RunReport& report, std::string_view name,
                   double fallback) {
  for (const auto& [key, value] : report.extra_metrics) {
    if (key == name) return value;
  }
  return fallback;
}

void set_metric(RunReport& report, std::string name, double value) {
  for (auto& [key, existing] : report.extra_metrics) {
    if (key == name) {
      existing = value;
      return;
    }
  }
  report.extra_metrics.emplace_back(std::move(name), value);
}

stats::Json report_json(const RunReport& report) {
  const RunConfig& config = report.config;

  stats::Json limits = stats::Json::object();
  limits.set("phi_max_sigma_m", config.limits.phi_max_sigma_m)
      .set("phi_max_tau_min", config.limits.phi_max_tau_min)
      .set("w_sigma", config.limits.w_sigma)
      .set("w_tau", config.limits.w_tau);

  // A disabled suppression echoes zero thresholds.
  const core::SuppressionThresholds thresholds =
      config.suppression.value_or(core::SuppressionThresholds{0.0, 0.0});
  stats::Json suppression = stats::Json::object();
  suppression.set("enabled", config.suppression.has_value())
      .set("max_spatial_extent_m", thresholds.max_spatial_extent_m)
      .set("max_temporal_extent_min", thresholds.max_temporal_extent_min);

  const shard::ShardConfig& sharded = config.sharded;
  const baseline::W4MConfig& w4m = config.w4m;
  stats::Json config_json = stats::Json::object();
  config_json.set("strategy", config.strategy)
      .set("k", config.k)
      .set("limits", std::move(limits))
      .set("suppression", std::move(suppression))
      .set("reshape", config.reshape)
      .set("leftover_policy", leftover_policy_name(config.leftover_policy))
      .set("sharded",
           stats::Json::object()
               .set("tile_size_m", sharded.tile_size_m)
               .set("max_shard_users",
                    static_cast<std::uint64_t>(sharded.max_shard_users))
               .set("workers", static_cast<std::uint64_t>(sharded.workers))
               .set("halo_m", sharded.halo_m))
      .set("w4m", stats::Json::object()
                      .set("delta_m", w4m.delta_m)
                      .set("trash_fraction", w4m.trash_fraction)
                      .set("chunk_size",
                           static_cast<std::uint64_t>(w4m.chunk_size))
                      .set("match_tolerance_min", w4m.match_tolerance_min));

  const RunCounters& c = report.counters;
  stats::Json counters = stats::Json::object();
  counters.set("input_users", c.input_users)
      .set("input_samples", c.input_samples)
      .set("output_groups", c.output_groups)
      .set("output_samples", c.output_samples)
      .set("merges", c.merges)
      .set("deleted_samples", c.deleted_samples)
      .set("created_samples", c.created_samples)
      .set("discarded_fingerprints", c.discarded_fingerprints)
      .set("stretch_evaluations", c.stretch_evaluations);

  stats::Json timings = stats::Json::object();
  timings.set("init_seconds", report.timings.init_seconds)
      .set("merge_seconds", report.timings.merge_seconds)
      .set("total_seconds", report.timings.total_seconds);

  stats::Json metrics = stats::Json::object();
  for (const auto& [name, value] : report.extra_metrics) {
    metrics.set(name, value);
  }

  // Dynamic keys (like "metrics" above): the schema lock covers the
  // section name, not the counter names, which grow as instrumentation
  // spreads without forcing a version bump each time.
  stats::Json obs = stats::Json::object();
  for (const auto& [name, value] : report.obs_counters) {
    obs.set(name, value);
  }

  stats::Json passes = stats::Json::array();
  for (const std::uint64_t count : report.pass_fingerprints) {
    passes.push(count);
  }
  stats::Json pass_blocks = stats::Json::array();
  for (const std::uint64_t count : report.pass_blocks) {
    pass_blocks.push(count);
  }
  stats::Json io = stats::Json::object();
  io.set("source", report.source_kind)
      .set("sink", report.sink_kind)
      .set("pass_fingerprints", std::move(passes))
      .set("pass_blocks", std::move(pass_blocks))
      .set("file_blocks", report.file_blocks)
      .set("blocks_read", report.blocks_read)
      .set("bytes_mapped", report.bytes_mapped)
      .set("peak_rss_bytes", report.peak_rss_bytes);

  stats::Json doc = stats::Json::object();
  doc.set("schema", "glove.run_report.v10")
      .set("strategy", config.strategy)
      .set("dataset", report.dataset_name)
      .set("config", std::move(config_json))
      .set("counters", std::move(counters))
      .set("timings", std::move(timings))
      .set("io", std::move(io))
      .set("metrics", std::move(metrics))
      .set("obs", std::move(obs));
  if (!report.shard_timings.empty()) {
    stats::Json shards = stats::Json::array();
    for (const shard::ShardTiming& row : report.shard_timings) {
      shards.push(stats::Json::object()
                      .set("shard", row.shard)
                      .set("input_fingerprints", row.input_fingerprints)
                      .set("deferred", row.deferred)
                      .set("output_groups", row.output_groups)
                      .set("init_seconds", row.init_seconds)
                      .set("merge_seconds", row.merge_seconds)
                      .set("total_seconds", row.total_seconds));
    }
    doc.set("shards", std::move(shards));
  }
  if (report.exec_workers > 0) {
    doc.set("exec",
            stats::Json::object().set("workers", report.exec_workers));
  }
  return doc;
}

std::string to_json(const RunReport& report, int indent) {
  return report_json(report).dump(indent) + "\n";
}

void write_report_file(const std::string& path, const RunReport& report) {
  std::ofstream out{path};
  if (!out) {
    throw std::runtime_error{"cannot open report file: " + path};
  }
  out << to_json(report);
  if (!out) {
    throw std::runtime_error{"failed writing report file: " + path};
  }
}

}  // namespace glove::api
