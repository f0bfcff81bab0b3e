#include "glove/core/glove.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
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
/// Merges append nodes, so ids reach 2n; 2^30 inputs keep them below
/// kExactBit.
constexpr std::size_t kMaxFingerprints = std::size_t{1} << 30;

/// Min-heap entry (16 bytes): candidate merge of nodes `a` and `b`.
/// Entries are lazy in two ways: a node consumed by a merge invalidates all
/// its pending entries (detected on pop, and dropped in bulk by the greedy
/// loop's compaction), and — in the pruned variant — an entry may carry
/// only a bounding-box *lower bound* on the stretch, refined to the true
/// value when it reaches the top of the heap.
///
/// `a` holds the node id with kExactBit folded in, so the plain
/// (stretch, a, b) order is (stretch, bound before exact, a, b): at equal
/// value a bound must pop before an exact entry, since its true stretch may
/// tie and only after refinement can the (a, b) tie-break pick the same
/// pair the all-exact heap would.
struct PairEntry {
  double stretch;
  std::uint32_t a;  ///< node id | kExactBit when `stretch` is exact
  std::uint32_t b;

  [[nodiscard]] std::uint32_t node_a() const { return a & ~kExactBit; }
  [[nodiscard]] bool exact() const { return (a & kExactBit) != 0; }

  friend bool operator>(const PairEntry& lhs, const PairEntry& rhs) {
    if (lhs.stretch != rhs.stretch) return lhs.stretch > rhs.stretch;
    if (lhs.a != rhs.a) return lhs.a > rhs.a;  // deterministic tie-break
    return lhs.b > rhs.b;
  }
};
static_assert(sizeof(PairEntry) == 16);

/// Cancellation poll interval inside parallel init chunks (elements).
constexpr std::size_t kCancelPollMask = 0x1FFF;

GloveResult anonymize_impl(const cdr::FingerprintDataset& data,
                           const GloveConfig& config,
                           const util::RunHooks& hooks, bool lazy_init) {
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

  MergeOptions merge_options;
  merge_options.limits = config.limits;
  merge_options.reshape = config.reshape;
  merge_options.suppression = config.suppression;

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

  // --- Initialization: stretch effort for all open pairs (Alg. 1 l. 1-2).
  // The pruned variant seeds the heap with bounding-box lower bounds
  // instead of exact efforts; bounds refine lazily on pop, so far-apart
  // pairs are never evaluated exactly.  Output is identical either way.
  const auto init_start = Clock::now();
  std::vector<std::uint32_t> open;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (is_open(id)) open.push_back(id);
  }

  // Per-node bounding-geometry cache (lazy variant only): computed once per
  // node — including nodes created by merges later on — so every candidate
  // pair can be seeded with a cheap lower bound instead of an exact
  // O(m_a * m_b) stretch evaluation.
  std::vector<FingerprintBounds> bounds;
  if (lazy_init) {
    bounds.resize(nodes.size());
    util::parallel_for(
        open.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            bounds[open[i]] = fingerprint_bounds(nodes[open[i]]);
          }
        },
        /*min_chunk=*/64);
  }

  // Sample pairs scanned by exact evaluations (core.stretch.sample_pairs):
  // parallel sections add one tally per chunk here, the serial loop counts
  // into `serial_pairs`.
  std::atomic<std::uint64_t> parallel_pairs{0};

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
      std::uint64_t chunk_pairs = 0;
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
        if (lazy_init) {
          heap[p] = PairEntry{
              stretch_lower_bound(bounds[a], bounds[b], config.limits), a, b};
        } else {
          heap[p] = PairEntry{fingerprint_stretch(nodes[a], nodes[b],
                                                  config.limits, &chunk_pairs),
                              a | kExactBit, b};
        }
      }
      parallel_pairs.fetch_add(chunk_pairs, std::memory_order_relaxed);
    });
    if (!lazy_init) stats.stretch_evaluations += pairs;
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
  static const obs::Counter c_refined = obs::counter("core.heap.refined");
  static const obs::Counter c_stale = obs::counter("core.heap.stale_skips");
  static const obs::Counter c_pushed = obs::counter("core.heap.pushed");
  static const obs::Counter c_purged = obs::counter("core.heap.purged");
  static const obs::Counter c_sample_pairs =
      obs::counter("core.stretch.sample_pairs");
  if (pairs > 0) c_seeded.add(pairs);
  std::uint64_t popped = 0;
  std::uint64_t refined = 0;
  std::uint64_t stale = 0;
  std::uint64_t pushed = 0;
  std::uint64_t purged = 0;
  std::uint64_t serial_pairs = 0;

  const auto is_stale = [&](const PairEntry& e) {
    return !is_open(e.node_a()) || !is_open(e.b);
  };

  // --- Greedy loop (Alg. 1 l. 4-15).
  const auto merge_start = Clock::now();
  const std::size_t initial_open = open.size();
  std::size_t open_count = open.size();
  std::vector<PairEntry> fresh;  // scratch for new pairs of a merged node
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
    // Pop the minimum-stretch pair of still-open nodes, refining lower
    // bounds that surface at the top.
    PairEntry top{};
    bool found = false;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      top = heap.back();
      heap.pop_back();
      ++popped;
      if (is_stale(top)) {
        ++stale;
        continue;
      }
      if (!top.exact()) {
        top.stretch = fingerprint_stretch(nodes[top.node_a()], nodes[top.b],
                                          config.limits, &serial_pairs);
        top.a |= kExactBit;
        ++stats.stretch_evaluations;
        ++refined;
        heap.push_back(top);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        continue;
      }
      found = true;
      break;
    }
    if (!found) {
      throw std::logic_error{"GLOVE heap exhausted with open nodes left"};
    }

    // Merge and install the new node.
    const std::uint32_t a = top.node_a();
    const std::uint32_t b = top.b;
    alive[a] = false;
    alive[b] = false;
    open_count -= 2;
    MergeStats merge_stats;
    cdr::Fingerprint merged =
        merge_fingerprints(nodes[a], nodes[b], merge_options, &merge_stats);
    stats.deleted_samples += merge_stats.suppressed_original_samples;
    ++stats.merges;
    const auto m_id = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(std::move(merged));
    alive.push_back(true);
    if (lazy_init) bounds.push_back(fingerprint_bounds(nodes[m_id]));

    if (nodes[m_id].group_size() >= config.k) {
      finalized.push_back(m_id);
      hooks.report(pairs + (initial_open - open_count), total_work);
      continue;
    }
    ++open_count;

    // Alg. 1 l. 10-13: stretch from the new node to every open node.  The
    // lazy variant seeds these pairs with bounding-box lower bounds from
    // the per-node cache (refined on pop, like the initial heap), so a
    // merge costs O(open) cheap bound evaluations instead of O(open)
    // exact O(m_a * m_b) ones.
    std::vector<std::uint32_t> targets;
    targets.reserve(open_count);
    for (std::uint32_t id = 0; id < m_id; ++id) {
      if (is_open(id)) targets.push_back(id);
    }
    fresh.resize(targets.size());
    if (lazy_init) {
      for (std::size_t t = 0; t < targets.size(); ++t) {
        fresh[t] = PairEntry{stretch_lower_bound(bounds[m_id],
                                                 bounds[targets[t]],
                                                 config.limits),
                             m_id, targets[t]};
      }
    } else {
      util::parallel_for(
          targets.size(),
          [&](std::size_t begin, std::size_t end) {
            std::uint64_t chunk_pairs = 0;
            for (std::size_t t = begin; t < end; ++t) {
              fresh[t] = PairEntry{
                  fingerprint_stretch(nodes[m_id], nodes[targets[t]],
                                      config.limits, &chunk_pairs),
                  m_id | kExactBit, targets[t]};
            }
            parallel_pairs.fetch_add(chunk_pairs, std::memory_order_relaxed);
          },
          /*min_chunk=*/16);
      stats.stretch_evaluations += targets.size();
    }
    for (const PairEntry& e : fresh) {
      heap.push_back(e);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
    pushed += fresh.size();
    hooks.report(pairs + (initial_open - open_count), total_work);
  }

  // --- Leftover handling (unspecified in Alg. 1; see DESIGN.md).
  if (open_count == 1) {
    hooks.throw_if_cancelled();
    std::uint32_t leftover = 0;
    for (std::uint32_t id = 0; id < nodes.size(); ++id) {
      if (is_open(id)) leftover = id;
    }
    switch (config.leftover_policy) {
      case LeftoverPolicy::kMergeIntoNearest: {
        if (finalized.empty()) {
          // Cannot happen for data.size() >= k >= 2: the loop only exits
          // with one open node after at least one group reached k.
          throw std::logic_error{"no finalized group to absorb leftover"};
        }
        std::uint32_t best_id = finalized.front();
        double best = std::numeric_limits<double>::infinity();
        for (const std::uint32_t id : finalized) {
          const double d = fingerprint_stretch(nodes[leftover], nodes[id],
                                               config.limits, &serial_pairs);
          ++stats.stretch_evaluations;
          if (d < best) {
            best = d;
            best_id = id;
          }
        }
        MergeStats merge_stats;
        cdr::Fingerprint merged = merge_fingerprints(
            nodes[leftover], nodes[best_id], merge_options, &merge_stats);
        stats.deleted_samples += merge_stats.suppressed_original_samples;
        ++stats.merges;
        alive[leftover] = false;
        alive[best_id] = false;
        nodes.push_back(std::move(merged));
        alive.push_back(true);
        std::replace(finalized.begin(), finalized.end(), best_id,
                     static_cast<std::uint32_t>(nodes.size() - 1));
        break;
      }
      case LeftoverPolicy::kSuppress: {
        alive[leftover] = false;
        stats.discarded_fingerprints += nodes[leftover].group_size();
        stats.deleted_samples += nodes[leftover].total_contributors();
        break;
      }
    }
  }
  stats.merge_seconds = seconds_since(merge_start);
  if (popped > 0) c_popped.add(popped);
  if (refined > 0) c_refined.add(refined);
  if (stale > 0) c_stale.add(stale);
  if (pushed > 0) c_pushed.add(pushed);
  if (purged > 0) c_purged.add(purged);
  const std::uint64_t scanned = parallel_pairs.load() + serial_pairs;
  if (scanned > 0) c_sample_pairs.add(scanned);
  hooks.report(total_work, total_work);

  // --- Collect output.
  std::vector<cdr::Fingerprint> output;
  output.reserve(finalized.size());
  for (const std::uint32_t id : finalized) {
    if (alive[id]) output.push_back(nodes[id]);
  }
  stats.output_groups = output.size();
  cdr::FingerprintDataset anonymized{std::move(output),
                                     data.name() + "-k" +
                                         std::to_string(config.k)};
  stats.output_samples = anonymized.total_samples();
  result.anonymized = std::move(anonymized);
  return result;
}

}  // namespace

GloveResult anonymize(const cdr::FingerprintDataset& data,
                      const GloveConfig& config, const util::RunHooks& hooks) {
  return anonymize_impl(data, config, hooks, /*lazy_init=*/false);
}

GloveResult anonymize_pruned(const cdr::FingerprintDataset& data,
                             const GloveConfig& config,
                             const util::RunHooks& hooks) {
  return anonymize_impl(data, config, hooks, /*lazy_init=*/true);
}

bool is_k_anonymous(const cdr::FingerprintDataset& data, std::uint32_t k) {
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    if (fp.group_size() < k) return false;
  }
  return true;
}

}  // namespace glove::core
