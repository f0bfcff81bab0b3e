#include "glove/core/glove.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
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

/// Bit 31 of NodeKey::a: set when the key is an exact stretch.  Node ids
/// stay below 2^31 because inputs are capped at kMaxFingerprints.
constexpr std::uint32_t kExactBit = std::uint32_t{1} << 31;
/// Merges append nodes, so ids reach 2n; 2^30 inputs keep them below
/// bit 31.
constexpr std::size_t kMaxFingerprints = std::size_t{1} << 30;

/// Min-heap key (16 bytes) of one open node: a lower bound on the least
/// exact (stretch, a, b) among the open pairs the node owns.  Pair {x, y}
/// with x > y belongs to x, the newer node, and its (a, b) is the one
/// test::naive_glove orders pairs by: (y, x) when both are inputs, (x, y)
/// otherwise.  A merge only takes pairs away from older nodes and gives
/// the new node all of its own, so a key never has to be lowered.
///
/// An exact key names its pair, with kExactBit folded into `a`, so the
/// plain (value, a, b) order puts any bound before an exact key of equal
/// value.  That is the order the merges need: a bound's true stretch may
/// tie the exact value, and only once it is exact can the (a, b)
/// tie-break pick the pair an all-exact heap would.  Once its partner has
/// merged away, an exact key is still a valid bound on the owner's other
/// pairs: they all sort after it.  A bound key names only its owner, in
/// both `a` and `b`.
struct NodeKey {
  double value;
  std::uint32_t a;  ///< pair's first node | kExactBit, or the owner
  std::uint32_t b;  ///< pair's second node, or the owner

  [[nodiscard]] bool exact() const { return (a & kExactBit) != 0; }
  [[nodiscard]] std::uint32_t node_a() const { return a & ~kExactBit; }
  [[nodiscard]] std::uint32_t owner() const { return std::max(node_a(), b); }
  /// The pair's older node; exact keys only.
  [[nodiscard]] std::uint32_t partner() const { return std::min(node_a(), b); }

  friend bool operator>(const NodeKey& lhs, const NodeKey& rhs) {
    if (lhs.value != rhs.value) return lhs.value > rhs.value;
    if (lhs.a != rhs.a) return lhs.a > rhs.a;  // deterministic tie-break
    return lhs.b > rhs.b;
  }
};
static_assert(sizeof(NodeKey) == 16);

/// Largest rescan batch of the greedy loop.
constexpr std::size_t kMaxRescanBatch = 1024;
/// Work of a rescan batch below which it runs inline: smaller batches
/// cost less than handing them to the thread pool.  A rescan of node x
/// counts its candidates times x's samples: its grid work grows with the
/// candidates, and the exact stretches it evaluates with both.  Measured
/// on perfbench's inputs (4 vCPUs, alternating runs): on city_halo_k2
/// every cut-off from 32,768 to 2,097,152 gave the same wall and cpu time
/// within noise, while running every batch inline took ~45% more wall
/// time and ~8% less cpu; serve_replay_k5 ran 8-13% longer inline.  The
/// lowest of those cut-offs keeps the most parallelism for small jobs.
constexpr std::uint64_t kParallelRescanWork = 32'768;

NodeKey pop_min(std::vector<NodeKey>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  const NodeKey top = heap.back();
  heap.pop_back();
  return top;
}

void push(std::vector<NodeKey>& heap, const NodeKey& key) {
  heap.push_back(key);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

}  // namespace

void check_config(const GloveConfig& config) {
  if (config.k < 2) {
    throw std::invalid_argument{"k must be >= 2 (got " +
                                std::to_string(config.k) + ")"};
  }
  if (config.suppression &&
      !(config.suppression->max_spatial_extent_m > 0.0 &&
        config.suppression->max_temporal_extent_min > 0.0)) {
    throw std::invalid_argument{"suppression thresholds must be positive"};
  }
}

GloveResult anonymize(const cdr::FingerprintDataset& data,
                      const GloveConfig& config) {
  check_config(config);
  util::check_dataset_size(data.size(), config.k);
  if (data.size() >= kMaxFingerprints) {
    throw util::DatasetError{"dataset holds " + std::to_string(data.size()) +
                             " fingerprints; GLOVE takes fewer than 2^30"};
  }
  {
    std::vector<cdr::UserId> users;
    cdr::add_distinct_users(users, data.fingerprints(), "input dataset");
  }

  GloveResult result;
  GloveStats& stats = result.stats;
  stats.input_users = data.total_users();
  stats.input_samples = data.total_samples();

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

  // --- Initialization (Alg. 1 l. 1-2): each open node's key starts as
  // its least box bound to the older open nodes, whose pairs it owns.  A
  // key moves on to the exact stretch of the node's nearest older node
  // only when it reaches the top of the heap, so far-apart pairs are never
  // evaluated exactly, and the merges (hence the output) are the ones a
  // heap of every exact pair would give.
  const auto init_start = Clock::now();
  // Open node ids, ascending, so the older open nodes of x are the ids
  // before it.
  std::vector<std::uint32_t> open;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    if (is_open(id)) open.push_back(id);
  }
  const auto older_open = [&](std::uint32_t x) {
    return std::span<const std::uint32_t>{open}.first(static_cast<std::size_t>(
        std::lower_bound(open.begin(), open.end(), x) - open.begin()));
  };

  // Per-node bounds cache for the cascade: computed once per node,
  // including the open nodes merges create later on, and dropped once the
  // node is merged away.  The grid holds the open nodes, and every search
  // and key below goes through it.
  std::vector<NodeBounds> bounds = node_bounds_of(nodes);
  CandidateGrid grid{bounds, open};

  const std::size_t rows = open.size();
  const std::size_t pairs = rows >= 2 ? rows * (rows - 1) / 2 : 0;
  // Every open node but the oldest owns a pair; its key is one grid query
  // over the open nodes before it.
  std::vector<NodeKey> heap(rows >= 2 ? rows - 1 : 0);
  SearchTally tally;
  std::mutex tally_mutex;
  util::parallel_for(
      heap.size(),
      [&](std::size_t begin, std::size_t end) {
        SearchTally part;
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t x = open[i + 1];
          heap[i] = NodeKey{
              grid.least_box_bound(bounds[x].box, bounds, x, &part), x, x};
        }
        const std::lock_guard lock{tally_mutex};
        tally += part;
      },
      /*min_chunk=*/64);
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  stats.init_seconds = seconds_since(init_start);

  // Candidate-churn accounting: how much of the heap's traffic is useful
  // (rescans, fresh keys) vs wasted (stale pops of merged nodes).  All
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
  static const obs::Counter c_pool_batches =
      obs::counter("core.heap.pool_batches");
  static const obs::Counter c_stale = obs::counter("core.heap.stale_skips");
  static const obs::Counter c_pushed = obs::counter("core.heap.pushed");
  if (pairs > 0) c_seeded.add(pairs);
  std::uint64_t popped = 0;
  std::uint64_t batches = 0;
  std::uint64_t pool_batches = 0;
  std::uint64_t stale = 0;
  std::uint64_t pushed = 0;

  // The slot bounds and exact stretches each node's rescans computed for
  // the pairs it owns, pruned as partners merge away and freed once the
  // node itself merges.
  std::vector<std::vector<KnownStretch>> known(nodes.size());

  // Rescan batch state, reused across batches.  `rescan` recomputes each
  // batch key as the exact stretch of its owner's nearest older open
  // node, or leaves it out when the owner has none left.
  std::size_t batch_limit = 1;
  std::vector<NodeKey> batch;
  std::vector<std::optional<NodeKey>> rescanned;
  std::vector<SearchTally> tallies;
  const auto rescan = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t x = batch[i].owner();
      if (older_open(x).empty()) {
        rescanned[i].reset();
        known[x] = std::vector<KnownStretch>{};
        continue;
      }
      const Neighbor found =
          nearest(nodes[x], bounds[x], nodes, bounds, grid, 1, std::nullopt,
                  &tallies[i], &known[x], x)
              .front();
      const auto y = static_cast<std::uint32_t>(found.index);
      rescanned[i] = x < data.size() ? NodeKey{found.stretch, y | kExactBit, x}
                                     : NodeKey{found.stretch, x | kExactBit, y};
    }
  };

  const auto names_open_pair = [&](const NodeKey& key) {
    return key.exact() && is_open(key.partner());
  };

  // --- Greedy loop (Alg. 1 l. 4-15).
  const auto merge_start = Clock::now();
  while (open.size() >= 2) {
    // Pop the least key of an open node.  An exact key whose partner is
    // still open names the pair to merge: every other key is at most the
    // least exact pair of its owner, and the node heap holds them all.
    // Any other key (a bound, or an exact key whose partner merged away)
    // is popped with the keys that follow it in heap order, up to the
    // first such exact key; the batch is rescanned in parallel and pushed
    // back.  A rescan only raises a key, and a merge never comes straight
    // from a batch, so this cannot change the merge.  Batch sizes follow
    // the heap's own history, never the worker count, so the counters do
    // not depend on threads: the keys the one-at-a-time loop would also
    // have rescanned form a prefix of the batch (each sorts below every
    // rescanned key before it); the batch limit doubles, up to
    // kMaxRescanBatch, while that prefix is the whole batch, and
    // otherwise shrinks to the prefix.
    NodeKey top{};
    for (;;) {
      if (heap.empty()) {
        throw std::logic_error{"GLOVE heap exhausted with open nodes left"};
      }
      top = pop_min(heap);
      ++popped;
      if (!is_open(top.owner())) {
        ++stale;
        continue;
      }
      if (names_open_pair(top)) break;

      batch.assign(1, top);
      while (batch.size() < batch_limit && !heap.empty()) {
        const NodeKey& front = heap.front();
        if (is_open(front.owner()) && names_open_pair(front)) break;
        const NodeKey next = pop_min(heap);
        ++popped;
        if (is_open(next.owner())) {
          batch.push_back(next);
        } else {
          ++stale;
        }
      }
      std::uint64_t work = 0;
      for (const NodeKey& key : batch) {
        work += std::uint64_t{older_open(key.owner()).size()} *
                nodes[key.owner()].size();
      }
      rescanned.resize(batch.size());
      tallies.assign(batch.size(), SearchTally{});
      if (work >= kParallelRescanWork) {
        util::parallel_for(batch.size(), rescan, /*min_chunk=*/1);
        ++pool_batches;
      } else {
        rescan(0, batch.size());
      }

      // Push the rescanned keys back; `prefix` counts the batch's leading
      // keys that the one-at-a-time loop rescans too.
      std::size_t prefix = 0;
      std::optional<NodeKey> lowest;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::optional<NodeKey>& key = rescanned[i];
        if (prefix == i && (!lowest || *lowest > batch[i])) {
          ++prefix;
          if (key && (!lowest || *lowest > *key)) lowest = key;
        }
        if (key) {
          push(heap, *key);
          ++pushed;
        }
        tally += tallies[i];
      }
      batch_limit = prefix == batch.size()
                        ? std::min(2 * batch_limit, kMaxRescanBatch)
                        : prefix;
      ++batches;
    }

    // Merge and install the new node.
    const std::uint32_t a = top.node_a();
    const std::uint32_t b = top.b;
    alive[a] = false;
    alive[b] = false;
    std::erase_if(open, [&](std::uint32_t id) { return id == a || id == b; });
    grid.erase(a);
    grid.erase(b);
    bounds[a] = NodeBounds{};
    bounds[b] = NodeBounds{};
    known[a] = std::vector<KnownStretch>{};
    known[b] = std::vector<KnownStretch>{};
    MergeStats merge_stats;
    cdr::Fingerprint merged =
        merge_fingerprints(nodes[a], nodes[b], config, &merge_stats);
    nodes[a] = cdr::Fingerprint{};
    nodes[b] = cdr::Fingerprint{};
    stats.deleted_samples += merge_stats.suppressed_original_samples;
    ++stats.merges;
    const auto m_id = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(std::move(merged));
    alive.push_back(true);
    bounds.emplace_back();
    known.emplace_back();

    if (nodes[m_id].group_size() >= config.k) {
      finalized.push_back(m_id);
    } else {
      // Alg. 1 l. 10-13: the new node owns its pairs to every open node,
      // and its key starts as their least box bound.
      bounds[m_id] = node_bounds(nodes[m_id]);
      if (!open.empty()) {
        push(heap, NodeKey{grid.least_box_bound(bounds[m_id].box, bounds, m_id,
                                                &tally),
                           m_id, m_id});
        ++pushed;
      }
      open.push_back(m_id);
      grid.insert(m_id, bounds[m_id].box);
    }
  }

  // At most one node is still open: the leftover, which Alg. 1 leaves
  // unspecified; absorb_leftovers applies config.leftover_policy to it.
  std::vector<cdr::Fingerprint> tail;
  for (const std::uint32_t id : open) tail.push_back(std::move(nodes[id]));

  // --- Collect output, then apply the leftover policy to it.
  std::vector<cdr::Fingerprint> output;
  output.reserve(finalized.size());
  for (const std::uint32_t id : finalized) {
    output.push_back(std::move(nodes[id]));
  }
  absorb_leftovers(std::move(tail), output, config, stats);
  stats.merge_seconds = seconds_since(merge_start);
  stats.stretch_evaluations += tally.evaluations;
  if (popped > 0) c_popped.add(popped);
  if (tally.slot_bounds > 0) c_slot_bounds.add(tally.slot_bounds);
  if (tally.evaluations > 0) c_refined.add(tally.evaluations);
  if (batches > 0) c_batches.add(batches);
  if (pool_batches > 0) c_pool_batches.add(pool_batches);
  if (stale > 0) c_stale.add(stale);
  if (pushed > 0) c_pushed.add(pushed);
  add_search_counters(tally);

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
                             const GloveConfig& config, GloveStats& stats) {
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
  CandidateGrid grid{group_bounds};
  SearchTally tally;
  for (const cdr::Fingerprint& leftover : tail) {
    const std::size_t g =
        nearest(leftover, node_bounds(leftover), groups, group_bounds, grid, 1,
                std::nullopt, &tally)
            .front()
            .index;
    MergeStats merge_stats;
    groups[g] = merge_fingerprints(leftover, groups[g], config, &merge_stats);
    group_bounds[g] = node_bounds(groups[g]);
    grid.widen(static_cast<std::uint32_t>(g), group_bounds[g].box);
    stats.deleted_samples += merge_stats.suppressed_original_samples;
    ++stats.merges;
  }
  stats.stretch_evaluations += tally.evaluations;
  add_search_counters(tally);
  return tail.size();
}

bool is_k_anonymous(const cdr::FingerprintDataset& data, std::uint32_t k) {
  for (const cdr::Fingerprint& fp : data.fingerprints()) {
    if (fp.group_size() < k) return false;
  }
  return true;
}

}  // namespace glove::core
