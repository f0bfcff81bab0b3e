#include "glove/shard/stream.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "glove/core/scalability.hpp"
#include "glove/obs/log.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/obs/span.hpp"
#include "glove/shard/planner.hpp"
#include "glove/shard/reconcile.hpp"
#include "glove/shard/tiling.hpp"
#include "glove/util/thread_pool.hpp"

namespace glove::shard {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// What pass 1 keeps per fingerprint: bounding geometry for tiling and
/// the border split, group size for the leftover accounting — never the
/// samples.
struct StreamScan {
  std::vector<core::FingerprintBounds> bounds;
  std::vector<std::uint32_t> group_sizes;
  std::uint64_t users = 0;
  std::uint64_t samples = 0;
};

StreamScan scan_stream(api::DatasetSource& source) {
  StreamScan scan;
  if (std::vector<cdr::FingerprintSummary> summaries;
      source.summaries(summaries)) {
    // Index-capable sources persisted the exact fingerprint_bounds
    // fields, so pass 1 is a footer read — no payload decode at all.
    scan.bounds.reserve(summaries.size());
    scan.group_sizes.reserve(summaries.size());
    for (const cdr::FingerprintSummary& s : summaries) {
      scan.bounds.push_back(core::FingerprintBounds{
          cdr::SpatialExtent{s.x, s.dx, s.y, s.dy},
          cdr::TemporalExtent{s.t, s.dt}, s.sample_count == 0});
      scan.group_sizes.push_back(s.group_size);
      scan.users += s.group_size;
      scan.samples += s.sample_count;
    }
    return scan;
  }
  if (const cdr::FingerprintDataset* data = source.materialized()) {
    // Materialized sources are scanned by index with parallel bounds
    // computation — the pre-streaming runner's exact setup, no copies.
    scan.bounds = core::bounds_of(data->fingerprints());
    scan.group_sizes.reserve(data->size());
    for (const cdr::Fingerprint& fp : data->fingerprints()) {
      scan.group_sizes.push_back(fp.group_size());
    }
    scan.users = data->total_users();
    scan.samples = data->total_samples();
    return scan;
  }
  cdr::Fingerprint fp;
  while (source.next(fp)) {
    scan.bounds.push_back(core::fingerprint_bounds(fp));
    scan.group_sizes.push_back(fp.group_size());
    scan.users += fp.group_size();
    scan.samples += fp.size();
  }
  return scan;
}

/// Re-reads the whole stream, materializing only the fingerprints whose
/// dataset index appears in `slot_of_id` (into `store`, slot-addressed).
/// Returns the number of fingerprints the pass yielded.
std::uint64_t materialize_pass(
    api::DatasetSource& source,
    const std::unordered_map<std::uint32_t, std::uint32_t>& slot_of_id,
    std::vector<cdr::Fingerprint>& store, std::size_t expected) {
  // Index-capable sources seek straight to the blocks holding the
  // requested fingerprints; the pass then "streamed" only those.
  if (const std::optional<std::uint64_t> fetched =
          source.fetch(slot_of_id, store)) {
    return *fetched;
  }
  source.rewind();
  cdr::Fingerprint fp;
  std::uint64_t index = 0;
  while (source.next(fp)) {
    if (index < expected) {
      const auto it = slot_of_id.find(static_cast<std::uint32_t>(index));
      if (it != slot_of_id.end()) store[it->second] = std::move(fp);
    }
    ++index;
    if (index > expected) break;  // grew — diagnosed below
  }
  if (index != expected) {
    throw util::DatasetError{
        "streaming source yielded a different number of fingerprints after "
        "rewind (got " + std::to_string(index) +
        (index > expected ? "+" : "") + ", planned " +
        std::to_string(expected) + ")"};
  }
  return index;
}

/// One entry of the run's ordered unit list: a shard job, or a piece of
/// the reconcile plan.  `ids` are dataset indices in member order.
enum class UnitKind { kShard, kPassthrough, kChunk, kTail };

struct Unit {
  UnitKind kind;
  std::size_t index;  ///< shard index, or reconcile chunk index
  std::vector<std::uint32_t> ids;
};

}  // namespace

void check_config(const ShardConfig& config, std::uint32_t k) {
  const auto non_negative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  if (!non_negative(config.tile_size_m)) {
    throw std::invalid_argument{
        "sharded.tile_size_m must be finite and positive (or 0 for an "
        "adaptive, density-derived tile size)"};
  }
  if (!non_negative(config.halo_m)) {
    throw std::invalid_argument{
        "sharded.halo_m must be finite and non-negative"};
  }
  if (config.max_shard_users < k) {
    throw std::invalid_argument{"sharded.max_shard_users must be at least k"};
  }
  if (config.workers > 4'096) {
    throw std::invalid_argument{
        "sharded.workers must be at most 4096 (0 = hardware concurrency)"};
  }
}

StreamShardedResult anonymize_sharded_stream(api::DatasetSource& source,
                                             const core::GloveConfig& glove,
                                             const ShardConfig& sharded,
                                             const GroupEmitter& emit) {
  core::check_config(glove);
  check_config(sharded, glove.k);

  // Deterministic plane counters (counts only — they surface in the run
  // report's "obs" section), kept here so they are independent of the
  // job threads.
  static const obs::Counter c_batches = obs::counter("stream.shard_batches");
  static const obs::Counter c_shards = obs::counter("stream.shards_run");
  static const obs::Histogram h_shard_members =
      obs::histogram("stream.shard.members");
  static const obs::Counter c_chunks = obs::counter("stream.reconcile_chunks");

  StreamShardedResult result;

  // --- Pass 1: bounds-only scan, tile, plan, split borders, plan the
  // reconciliation.
  const auto plan_start = Clock::now();
  StreamScan scan;
  {
    GLOVE_SPAN_NAMED(pass1_span, "stream.pass1.scan");
    scan = scan_stream(source);
    pass1_span.arg("fingerprints", scan.bounds.size());
    pass1_span.arg("users", scan.users);
    pass1_span.arg("samples", scan.samples);
  }
  const std::size_t n = scan.bounds.size();
  result.pass_fingerprints.push_back(n);
  if (n == 0) throw util::DatasetError{"input dataset is empty"};
  util::check_dataset_size(n, glove.k);
  result.stats.glove.input_users = scan.users;
  result.stats.glove.input_samples = scan.samples;

  const Tiling tiling = [&] {
    GLOVE_SPAN("stream.plan");
    return build_tiling_from_bounds(std::move(scan.bounds),
                                    sharded.tile_size_m,
                                    sharded.max_shard_users);
  }();
  result.stats.tile_size_m = tiling.tile_size_m;

  const ShardPlan plan =
      plan_shards(tiling, glove.k, sharded.max_shard_users);
  BorderSplit split = split_borders(tiling, plan, sharded.halo_m, glove.k);
  const std::size_t shard_count = plan.shards.size();
  result.stats.tiles = plan.tiles;
  result.stats.shards = shard_count;

  // The ordered unit list: each non-empty kept set as a shard job, then
  // the reconcile plan over the deferred leftovers in (shard, member)
  // order, planned from their pass-1 bounds and group sizes alone.
  std::vector<Unit> units;
  std::size_t job_count = 0;
  result.shard_timings.resize(shard_count);
  {
    std::vector<std::uint32_t> leftover_ids;
    for (std::size_t s = 0; s < shard_count; ++s) {
      ShardTiming& timing = result.shard_timings[s];
      timing.shard = s;
      timing.input_fingerprints = split.kept[s].size();
      timing.deferred = split.deferred[s].size();
      leftover_ids.insert(leftover_ids.end(), split.deferred[s].begin(),
                          split.deferred[s].end());
      if (!split.kept[s].empty()) {
        units.push_back({UnitKind::kShard, s, std::move(split.kept[s])});
      }
    }
    result.stats.deferred_fingerprints = leftover_ids.size();
    job_count = units.size();

    std::vector<core::FingerprintBounds> leftover_bounds;
    std::vector<std::uint32_t> leftover_sizes;
    leftover_bounds.reserve(leftover_ids.size());
    leftover_sizes.reserve(leftover_ids.size());
    for (const std::uint32_t id : leftover_ids) {
      leftover_bounds.push_back(tiling.bounds[id]);
      leftover_sizes.push_back(scan.group_sizes[id]);
    }
    const ReconcilePlan rplan = plan_reconcile(
        leftover_bounds, leftover_sizes, glove.k, sharded.max_shard_users);
    const auto ids_at = [&](const std::vector<std::uint32_t>& positions) {
      std::vector<std::uint32_t> ids;
      ids.reserve(positions.size());
      for (const std::uint32_t position : positions) {
        ids.push_back(leftover_ids[position]);
      }
      return ids;
    };
    if (!rplan.passthrough.empty()) {
      units.push_back({UnitKind::kPassthrough, 0, ids_at(rplan.passthrough)});
    }
    for (std::size_t c = 0; c < rplan.chunks.size(); ++c) {
      units.push_back({UnitKind::kChunk, c, ids_at(rplan.chunks[c])});
    }
    job_count += rplan.chunks.size();
    if (!rplan.tail.empty()) {
      units.push_back({UnitKind::kTail, 0, ids_at(rplan.tail)});
    }
  }
  result.stats.plan_seconds = seconds_since(plan_start);

  // Absorbing a sub-k tail (fewer than k sub-k leftovers under
  // kMergeIntoNearest) rewrites the nearest already-finalized group, so
  // that rare run holds every group back until the tail is absorbed.
  // Every other shape only appends, so groups flow to the emitter as
  // their batch completes.
  const bool hold =
      glove.leftover_policy == core::LeftoverPolicy::kMergeIntoNearest &&
      !units.empty() && units.back().kind == UnitKind::kTail;
  std::uint64_t emitted_groups = 0;
  std::uint64_t emitted_samples = 0;
  std::vector<cdr::Fingerprint> held;
  const auto deliver = [&](cdr::Fingerprint&& fp) {
    if (hold) {
      held.push_back(std::move(fp));
      return;
    }
    ++emitted_groups;
    emitted_samples += fp.size();
    emit(std::move(fp));
  };

  // --- Passes 2..: run the units in batches: units in order, each batch
  // closed before its members pass the budget (an oversized unit forms its
  // own), whatever their kind.  A re-read source rewinds once per batch,
  // so the budget caps one pass at about one shard per job thread.  A
  // materialized source is never re-read (each job copies its members as
  // it starts), so its budget is all n fingerprints: one batch.
  const cdr::FingerprintDataset* inmem = source.materialized();
  // Never more threads than jobs, so none is idle by construction.  The
  // pool is the run's own: each job's core::anonymize hands refinement
  // batches to ThreadPool::shared() and waits for them, so a job must
  // never run on that pool.
  std::size_t workers = sharded.workers;
  if (workers == 0) workers = util::ThreadPool::shared().size();
  workers = std::min(std::max<std::size_t>(workers, 1),
                     std::max<std::size_t>(job_count, 1));
  util::ThreadPool job_pool{workers};
  const std::size_t budget =
      inmem != nullptr ? n : sharded.max_shard_users * workers;

  // A user id two fingerprints hold would be published twice.  Each job
  // sees only its own members, so the run checks every batch against the
  // users of the batches before it (a materialized source, all at once).
  std::vector<cdr::UserId> users;
  if (inmem != nullptr) {
    cdr::add_distinct_users(users, inmem->fingerprints(), "input dataset");
  }

  std::vector<cdr::Fingerprint> tail;
  for (std::size_t first = 0; first < units.size();) {
    std::size_t last = first + 1;
    std::size_t members = units[first].ids.size();
    while (last < units.size() && members + units[last].ids.size() <= budget) {
      members += units[last].ids.size();
      ++last;
    }
    GLOVE_SPAN_NAMED(batch_span, "stream.shard_batch");
    batch_span.arg("first_unit", first);
    batch_span.arg("units", last - first);
    batch_span.arg("members", members);
    c_batches.add();
    if (obs::log_verbose()) {
      obs::log_info("stream.batch", obs::log_kv("first_unit", first) + ' ' +
                                        obs::log_kv("units", last - first) +
                                        ' ' + obs::log_kv("members", members));
    }

    // Materialized sources hand fingerprints out by index (one copy per
    // batch member); other sources are re-read once per batch, keeping
    // only the batch's members.
    std::unordered_map<std::uint32_t, std::uint32_t> slot_of_id;
    std::vector<cdr::Fingerprint> store;
    if (inmem == nullptr) {
      slot_of_id.reserve(members);
      std::uint32_t next_slot = 0;
      for (std::size_t u = first; u < last; ++u) {
        for (const std::uint32_t id : units[u].ids) {
          slot_of_id[id] = next_slot++;
        }
      }
      store.resize(next_slot);
      result.pass_fingerprints.push_back(
          materialize_pass(source, slot_of_id, store, n));
      cdr::add_distinct_users(users, store, "input dataset");
    }
    // Each member is taken once: by the coordinator for pass-throughs and
    // the tail, or by the job that anonymizes it.
    const MemberFn member = [&](std::uint32_t id) -> cdr::Fingerprint {
      if (inmem != nullptr) return (*inmem)[id];
      return std::move(store[slot_of_id.at(id)]);
    };

    // The GLOVE units become jobs.
    std::vector<ShardJob> jobs;
    for (std::size_t u = first; u < last; ++u) {
      const Unit& unit = units[u];
      if (unit.kind == UnitKind::kShard) {
        c_shards.add();
        h_shard_members.observe(unit.ids.size());
      } else if (unit.kind == UnitKind::kChunk) {
        c_chunks.add();
      } else {
        continue;
      }
      jobs.push_back({unit.index, unit.kind == UnitKind::kChunk, unit.ids});
    }

    // Results come back in job order; deliver them in unit order, with
    // the pass-throughs at their place and the tail kept for the end.
    std::vector<ShardResult> batch_results =
        run_jobs(job_pool, jobs, member, glove);
    auto next_result = batch_results.begin();
    for (std::size_t u = first; u < last; ++u) {
      const Unit& unit = units[u];
      if (unit.kind == UnitKind::kPassthrough) {
        for (const std::uint32_t id : unit.ids) deliver(member(id));
        continue;
      }
      if (unit.kind == UnitKind::kTail) {
        for (const std::uint32_t id : unit.ids) tail.push_back(member(id));
        continue;
      }
      ShardResult& r = *next_result++;
      result.stats.glove.accumulate_costs(r.stats);
      if (unit.kind == UnitKind::kChunk) {
        result.stats.reconciled_groups += r.groups.size();
      } else {
        ShardTiming& timing = result.shard_timings[r.timing.shard];
        timing.init_seconds = r.timing.init_seconds;
        timing.merge_seconds = r.timing.merge_seconds;
        timing.total_seconds = r.timing.total_seconds;
        timing.output_groups = r.timing.output_groups;
      }
      for (cdr::Fingerprint& fp : r.groups) deliver(std::move(fp));
    }
    first = last;
  }

  // --- The leftover-policy tail, over the held groups when it absorbs:
  // the one reconcile step that waits for every batch.
  if (!tail.empty()) {
    GLOVE_SPAN_NAMED(reconcile_span, "stream.reconcile");
    reconcile_span.arg("leftovers", tail.size());
    const auto reconcile_start = Clock::now();
    result.stats.absorbed_leftovers = core::absorb_leftovers(
        std::move(tail), held, glove, result.stats.glove);
    result.stats.reconcile_seconds = seconds_since(reconcile_start);
  }
  for (cdr::Fingerprint& fp : held) {
    ++emitted_groups;
    emitted_samples += fp.size();
    emit(std::move(fp));
  }

  result.stats.glove.output_groups = emitted_groups;
  result.stats.glove.output_samples = emitted_samples;
  result.exec_workers = job_pool.size();
  return result;
}

}  // namespace glove::shard
