#include "glove/core/glove.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "glove/core/scalability.hpp"
#include "glove/obs/metrics.hpp"
#include "glove/util/parallel.hpp"

namespace glove::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Bit 31 of PairEntry::a: set when the entry's stretch is exact.  Node
/// ids stay below 2^31 because inputs are capped at kMaxFingerprints.
constexpr std::uint32_t kExactBit = std::uint32_t{1} << 31;
/// Bit 31 of PairEntry::b: set when a lower bound is the slot bound (stage
/// 2 of the cascade), clear while it is still the box bound (stage 1).
constexpr std::uint32_t kSlotBit = std::uint32_t{1} << 31;
/// Merges append nodes, so ids reach 2n; 2^30 inputs keep them below
/// bit 31.
constexpr std::size_t kMaxFingerprints = std::size_t{1} << 30;

/// Min-heap entry (16 bytes): candidate merge of nodes `a` and `b`.
/// Entries are lazy in two ways: a node consumed by a merge invalidates all
/// its pending entries (detected on pop, and dropped in bulk by the greedy
/// loop's compaction), and an entry starts out carrying only a *lower
/// bound* on the stretch, which moves through the box -> slot -> exact
/// cascade one stage each time it reaches the top of the heap: the box
/// bound (stretch_lower_bound) is replaced by the larger of it and the slot
/// bound (slot_lower_bound), and the slot bound by the exact stretch.
///
/// `a` holds the node id with kExactBit folded in, so the plain
/// (stretch, a, b) order puts any bound before an exact entry of equal
/// value.  That is the order the merges need: a bound's true stretch may
/// tie the exact value, and only once it is exact can the (a, b)
/// tie-break pick the pair an all-exact heap would.  `b` holds the node id
/// with kSlotBit folded in; between a box and a slot bound of equal value
/// the order is only a deterministic tie-break, since both still move on
/// before any exact entry of that value pops.  Exact entries clear
/// kSlotBit, so they compare by plain (a, b).
struct PairEntry {
  double stretch;
  std::uint32_t a;  ///< node id | kExactBit when `stretch` is exact
  std::uint32_t b;  ///< node id | kSlotBit when `stretch` is a slot bound

  [[nodiscard]] std::uint32_t node_a() const { return a & ~kExactBit; }
  [[nodiscard]] std::uint32_t node_b() const { return b & ~kSlotBit; }
  [[nodiscard]] bool exact() const { return (a & kExactBit) != 0; }
  [[nodiscard]] bool slot_bound() const { return (b & kSlotBit) != 0; }

  friend bool operator>(const PairEntry& lhs, const PairEntry& rhs) {
    if (lhs.stretch != rhs.stretch) return lhs.stretch > rhs.stretch;
    if (lhs.a != rhs.a) return lhs.a > rhs.a;  // deterministic tie-break
    return lhs.b > rhs.b;
  }
};
static_assert(sizeof(PairEntry) == 16);

/// Cancellation poll interval inside parallel init chunks (elements).
constexpr std::size_t kCancelPollMask = 0x1FFF;

/// Largest refinement batch of the greedy loop.
constexpr std::size_t kMaxRefineBatch = 1024;
/// Summed m_a * m_b of a refinement batch below which it runs inline:
/// smaller batches cost less than handing them to the thread pool.  An
/// entry counts m_a * m_b whichever stage it moves to, so a batch of slot
/// bounds reaches the pool as readily as one of exact stretches.  On
/// perfbench's city_halo_k2 (six inputs, 4 vCPUs) 29% of the batches reach
/// it, carrying 97.5% of the slot-bound work and 65% of the exact work;
/// counting a slot bound at its S_a * S_b slot pairs instead sent only 8%
/// there and was no faster (10 alternating pairs: cpu -3%, wall +3%).  The
/// batches of an incremental update's few-sample newcomers stay below it.
constexpr std::uint64_t kParallelRefineWork = 65'536;

PairEntry pop_min(std::vector<PairEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const PairEntry top = heap.back();
  heap.pop_back();
  return top;
}

void push(std::vector<PairEntry>& heap, const PairEntry& entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

const obs::Counter& sample_pairs_counter() {
  static const obs::Counter counter = obs::counter("core.stretch.sample_pairs");
  return counter;
}

}  // namespace

MergeOptions merge_options(const GloveConfig& config) {
  MergeOptions options;
  options.limits = config.limits;
  options.reshape = config.reshape;
  options.suppression = config.suppression;
  return options;
}

GloveResult anonymize(const cdr::FingerprintDataset& data,
                      const GloveConfig& config, const util::RunHooks& hooks) {
  if (config.k < 2) {
    throw std::invalid_argument{"GLOVE requires k >= 2"};
  }
  if (data.size() < config.k) {
    throw std::invalid_argument{
        "dataset smaller than the target anonymity level k"};
  }
  if (data.size() >= kMaxFingerprints) {
    throw std::invalid_argument{
        "GLOVE supports fewer than 2^30 fingerprints per run"};
  }

  GloveResult result;
  GloveStats& stats = result.stats;
  stats.input_users = data.total_users();
  stats.input_samples = data.total_samples();

  const MergeOptions options = merge_options(config);

  // Node store: input fingerprints first, merged fingerprints appended.
  std::vector<cdr::Fingerprint> nodes{data.fingerprints().begin(),
                                      data.fingerprints().end()};
  nodes.reserve(nodes.size() * 2);
  std::vector<bool> alive(nodes.size(), true);
  // Nodes whose group already reaches k: finalized, out of the greedy set.
  std::vector<std::uint32_t> finalized;

  const auto is_open = [&](std::uint32_t id) {
    return alive[id] && nodes[id].group_size() < config.k;
  };

  // Inputs can already satisfy k (e.g. re-anonymizing a published dataset).
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (nodes[id].group_size() >= config.k) finalized.push_back(id);
  }

  // --- Initialization: one candidate per open pair (Alg. 1 l. 1-2),
  // seeded with the bounding-box lower bound of its stretch effort.  Bounds
  // refine to the exact stretch when they reach the top of the heap, so
  // far-apart pairs are never evaluated exactly, and the pop order (hence
  // the output) is the one an all-exact heap would give.
  const auto init_start = Clock::now();
  std::vector<std::uint32_t> open;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (is_open(id)) open.push_back(id);
  }

  // Per-node bounds cache for the cascade: computed once per node,
  // including the open nodes merges create later on, and dropped once the
  // node is merged away.
  std::vector<NodeBounds> bounds = node_bounds_of(nodes);
  const auto box_bound = [&](std::uint32_t a, std::uint32_t b) {
    return stretch_lower_bound(bounds[a].box, bounds[b].box, config.limits);
  };

  std::vector<PairEntry> heap;
  const std::size_t pairs =
      open.size() >= 2 ? open.size() * (open.size() - 1) / 2 : 0;
  // Work units for progress: initial pairs plus open nodes to close.
  const std::uint64_t total_work =
      static_cast<std::uint64_t>(pairs) + open.size();
  if (pairs > 0) {
    heap.resize(pairs);
    // Row-major enumeration of the strict upper triangle, parallel by pair
    // index: pair p -> (i, j) with i < j.
    util::parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
      for (std::size_t p = begin; p < end; ++p) {
        if ((p & kCancelPollMask) == 0) hooks.throw_if_cancelled();
        // Invert p = i*(2n-i-1)/2 + (j-i-1): estimate row i analytically,
        // then fix rounding so that offsets(i) <= p < offsets(i+1).
        const double n = static_cast<double>(open.size());
        const double estimate =
            n - 0.5 -
            std::sqrt(std::max(0.0, (n - 0.5) * (n - 0.5) -
                                        2.0 * static_cast<double>(p)));
        std::size_t i = static_cast<std::size_t>(std::max(0.0, estimate));
        if (i > open.size() - 2) i = open.size() - 2;
        auto offset = [&](std::size_t row) {
          return row * (2 * open.size() - row - 1) / 2;
        };
        while (offset(i + 1) <= p) ++i;
        while (i > 0 && offset(i) > p) --i;
        const std::size_t j = p - offset(i) + i + 1;
        const std::uint32_t a = open[i];
        const std::uint32_t b = open[j];
        heap[p] = PairEntry{box_bound(a, b), a, b};
      }
    });
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  stats.init_seconds = seconds_since(init_start);
  hooks.throw_if_cancelled();
  hooks.report(pairs, total_work);

  // Candidate-churn accounting: how much of the heap's traffic is useful
  // (refines, fresh pairs) vs wasted (stale pops of dead nodes).  All
  // deterministic for a given input/config, so the totals surface in the
  // run report's "obs" section; tallied locally and folded in once after
  // the loop to keep the pop path free of shared writes.
  static const obs::Counter c_seeded = obs::counter("core.heap.seeded");
  static const obs::Counter c_popped = obs::counter("core.heap.popped");
  static const obs::Counter c_slot_bounds =
      obs::counter("core.heap.slot_bounds");
  static const obs::Counter c_refined = obs::counter("core.heap.refined");
  static const obs::Counter c_batches =
      obs::counter("core.heap.refine_batches");
  static const obs::Counter c_stale = obs::counter("core.heap.stale_skips");
  static const obs::Counter c_pushed = obs::counter("core.heap.pushed");
  static const obs::Counter c_purged = obs::counter("core.heap.purged");
  if (pairs > 0) c_seeded.add(pairs);
  std::uint64_t popped = 0;
  std::uint64_t slot_bounds = 0;
  std::uint64_t refined = 0;
  std::uint64_t batches = 0;
  std::uint64_t stale = 0;
  std::uint64_t pushed = 0;
  std::uint64_t purged = 0;
  std::uint64_t sample_pairs = 0;

  const auto is_stale = [&](const PairEntry& e) {
    return !is_open(e.node_a()) || !is_open(e.node_b());
  };

  // Refinement batch state, reused across batches.  `advance` moves each
  // batch entry one stage along the cascade.
  std::size_t batch_limit = 1;
  std::vector<PairEntry> batch;
  std::vector<PairEntry> advanced;
  std::vector<std::uint64_t> batch_pairs;
  const auto advance = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const PairEntry& e = batch[i];
      const std::uint32_t a = e.node_a();
      const std::uint32_t b = e.node_b();
      if (e.slot_bound()) {
        const double stretch = fingerprint_stretch(
            nodes[a], nodes[b], config.limits, &batch_pairs[i]);
        advanced[i] = PairEntry{stretch, a | kExactBit, b};
      } else {
        const double slot_bound = slot_lower_bound(
            bounds[a].slots, bounds[b].slots, config.limits);
        const double key = std::max(e.stretch, slot_bound);
        advanced[i] = PairEntry{key, a, b | kSlotBit};
      }
    }
  };

  // --- Greedy loop (Alg. 1 l. 4-15).
  const auto merge_start = Clock::now();
  const std::size_t initial_open = open.size();
  std::size_t open_count = open.size();
  while (open_count >= 2) {
    hooks.throw_if_cancelled();
    // Compaction.  Each live pair has exactly one entry, so fewer than
    // open_count^2 / 2 entries are live; once the heap holds more than
    // open_count^2 entries, at least half are stale.  Dropping them and
    // re-heapifying cannot change the live pop sequence (the entry order
    // is a strict total order), and the heap at least halves each time,
    // so all compactions together cost O(entries ever pushed).
    if (open_count * open_count < heap.size()) {
      const std::size_t before = heap.size();
      std::erase_if(heap, is_stale);
      purged += before - heap.size();
      std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    }
    // Pop the minimum-stretch pair of still-open nodes, advancing lower
    // bounds that surface at the top.  A bound at the top is popped with
    // the live bounds that follow it in heap order, up to the first live
    // exact entry; the batch is advanced one stage each in parallel (a box
    // bound to the slot bound, a slot bound to the exact stretch) and
    // pushed back.  This cannot change the merge: an exact entry pops only
    // once its key is below every remaining key, and a remaining bound's
    // key is at most its pair's exact key (neither bound exceeds the
    // stretch, the slot stage keeps the larger of the two, and any bound
    // sorts before an exact entry of equal value), so the popped pair has
    // the least exact (stretch, a, b) of all live pairs, whichever other
    // pairs were advanced.  Batch sizes follow the heap's own history,
    // never the worker count, so the counters do not depend on threads:
    // the entries the one-at-a-time loop would also have advanced form a
    // prefix of the batch (each bound sorts below every advanced key
    // before it; advancing only raises a key); the batch limit doubles, up
    // to kMaxRefineBatch, while that prefix is the whole batch, and
    // otherwise shrinks to the prefix.
    PairEntry top{};
    for (;;) {
      if (heap.empty()) {
        throw std::logic_error{"GLOVE heap exhausted with open nodes left"};
      }
      top = pop_min(heap);
      ++popped;
      if (is_stale(top)) {
        ++stale;
        continue;
      }
      if (top.exact()) break;

      batch.assign(1, top);
      while (batch.size() < batch_limit && !heap.empty()) {
        if (heap.front().exact() && !is_stale(heap.front())) break;
        const PairEntry next = pop_min(heap);
        ++popped;
        if (is_stale(next)) {
          ++stale;
        } else {
          batch.push_back(next);
        }
      }
      std::uint64_t work = 0;
      for (const PairEntry& e : batch) {
        work += std::uint64_t{nodes[e.node_a()].size()} *
                nodes[e.node_b()].size();
      }
      advanced.resize(batch.size());
      batch_pairs.assign(batch.size(), 0);
      if (work >= kParallelRefineWork) {
        util::parallel_for(batch.size(), advance, /*min_chunk=*/1);
      } else {
        advance(0, batch.size());
      }

      // Push the batch back one stage on; `prefix` counts its leading
      // entries that the one-at-a-time loop advances too.
      std::size_t prefix = 0;
      PairEntry lowest{};
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const PairEntry& entry = advanced[i];
        if (prefix == i && (i == 0 || lowest > batch[i])) {
          ++prefix;
          if (i == 0 || lowest > entry) lowest = entry;
        }
        push(heap, entry);
        if (entry.exact()) {
          ++refined;
          sample_pairs += batch_pairs[i];
        } else {
          ++slot_bounds;
        }
      }
      batch_limit = prefix == batch.size()
                        ? std::min(2 * batch_limit, kMaxRefineBatch)
                        : prefix;
      ++batches;
    }

    // Merge and install the new node.
    const std::uint32_t a = top.node_a();
    const std::uint32_t b = top.node_b();
    alive[a] = false;
    alive[b] = false;
    open_count -= 2;
    bounds[a] = NodeBounds{};
    bounds[b] = NodeBounds{};
    MergeStats merge_stats;
    cdr::Fingerprint merged =
        merge_fingerprints(nodes[a], nodes[b], options, &merge_stats);
    stats.deleted_samples += merge_stats.suppressed_original_samples;
    ++stats.merges;
    const auto m_id = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(std::move(merged));
    alive.push_back(true);
    bounds.emplace_back();

    if (nodes[m_id].group_size() >= config.k) {
      finalized.push_back(m_id);
      hooks.report(pairs + (initial_open - open_count), total_work);
      continue;
    }
    ++open_count;
    bounds[m_id] = node_bounds(nodes[m_id]);

    // Alg. 1 l. 10-13: stretch from the new node to every open node,
    // seeded with box bounds from the per-node cache (advanced on pop,
    // like the initial heap), so a merge costs O(open) cheap bound
    // evaluations instead of O(open) exact O(m_a * m_b) ones.
    for (std::uint32_t id = 0; id < m_id; ++id) {
      if (!is_open(id)) continue;
      push(heap, PairEntry{box_bound(m_id, id), m_id, id});
      ++pushed;
    }
    hooks.report(pairs + (initial_open - open_count), total_work);
  }

  // At most one node is still open: the leftover, which Alg. 1 leaves
  // unspecified; absorb_leftovers applies config.leftover_policy to it.
  std::vector<cdr::Fingerprint> tail;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (is_open(id)) tail.push_back(std::move(nodes[id]));
  }

  // --- Collect output, then apply the leftover policy to it.
  std::vector<cdr::Fingerprint> output;
  output.reserve(finalized.size());
  for (const std::uint32_t id : finalized) {
    output.push_back(std::move(nodes[id]));
  }
  absorb_leftovers(std::move(tail), output, config, stats, hooks);
  stats.merge_seconds = seconds_since(merge_start);
  stats.stretch_evaluations += refined;
  if (popped > 0) c_popped.add(popped);
  if (slot_bounds > 0) c_slot_bounds.add(slot_bounds);
  if (refined > 0) c_refined.add(refined);
  if (batches > 0) c_batches.add(batches);
  if (stale > 0) c_stale.add(stale);
  if (pushed > 0) c_pushed.add(pushed);
  if (purged > 0) c_purged.add(purged);
  if (sample_pairs > 0) sample_pairs_counter().add(sample_pairs);
  hooks.report(total_work, total_work);

  stats.output_groups = output.size();
  cdr::FingerprintDataset anonymized{std::move(output),
                                     data.name() + "-k" +
                                         std::to_string(config.k)};
  stats.output_samples = anonymized.total_samples();
  result.anonymized = std::move(anonymized);
  return result;
}

std::size_t absorb_leftovers(std::vector<cdr::Fingerprint> tail,
                             std::vector<cdr::Fingerprint>& groups,
                             const GloveConfig& config, GloveStats& stats,
                             const util::RunHooks& hooks) {
  if (config.leftover_policy == LeftoverPolicy::kSuppress) {
    for (const cdr::Fingerprint& leftover : tail) {
      stats.discarded_fingerprints += leftover.group_size();
      stats.deleted_samples += leftover.total_contributors();
    }
    return 0;
  }
  if (tail.empty()) return 0;
  if (groups.empty()) {
    // Unreachable for validated inputs: a run that leaves a sub-k leftover
    // has finalized at least one group.
    throw std::logic_error{"no group to absorb leftovers into"};
  }
  std::vector<NodeBounds> group_bounds = node_bounds_of(groups);
  const MergeOptions options = merge_options(config);
  std::uint64_t sample_pairs = 0;
  for (const cdr::Fingerprint& leftover : tail) {
    hooks.throw_if_cancelled();
    const std::size_t g =
        nearest_group(leftover, groups, group_bounds, config.limits,
                      &stats.stretch_evaluations, &sample_pairs)
            .index;
    MergeStats merge_stats;
    groups[g] = merge_fingerprints(leftover, groups[g], options, &merge_stats);
    group_bounds[g] = node_bounds(groups[g]);
    stats.deleted_samples += merge_stats.suppressed_original_samples;
    ++stats.merges;
  }
  if (sample_pairs > 0) sample_pairs_counter().add(sample_pairs);
  return tail.size();
}

bool is_k_anonymous(const cdr::FingerprintDataset& data, std::uint32_t k) {
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    if (fp.group_size() < k) return false;
  }
  return true;
}

}  // namespace glove::core
