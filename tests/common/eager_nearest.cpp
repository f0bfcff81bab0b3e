#include "common/eager_nearest.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "glove/core/stretch.hpp"

namespace glove::test {

std::vector<core::Neighbor> eager_nearest(
    const cdr::Fingerprint& fp, const core::NodeBounds& own,
    std::span<const cdr::Fingerprint> candidates,
    std::span<const core::NodeBounds> bounds,
    std::span<const std::uint32_t> ids, std::size_t count,
    std::optional<std::uint32_t> skip,
    core::SearchTally* tally, std::vector<core::KnownStretch>* known) {
  if (ids.empty() || candidates.size() != bounds.size() || count == 0) {
    throw std::invalid_argument{
        "eager_nearest needs a non-empty candidate list, one bounds entry "
        "per candidate and a count of at least 1"};
  }
  std::vector<core::Neighbor> best;
  const auto keep = [&](const core::Neighbor& found) {
    const auto before = [](const core::Neighbor& x, const core::Neighbor& y) {
      return std::tie(x.stretch, x.index) < std::tie(y.stretch, y.index);
    };
    best.insert(std::upper_bound(best.begin(), best.end(), found, before),
                found);
    if (best.size() > count) best.pop_back();
  };

  // Every candidate enters the heap up front: a known value at its stage,
  // any other with its box bound.
  core::SearchTally done;
  std::vector<std::tuple<double, std::uint32_t, bool>> order;
  std::size_t kept = 0;
  std::size_t next_known = 0;
  for (const std::uint32_t c : ids) {
    if (c >= candidates.size()) {
      throw std::invalid_argument{"eager_nearest: candidate id out of range"};
    }
    if (c == skip) continue;
    if (known != nullptr) {
      while (next_known < known->size() && (*known)[next_known].id < c) {
        ++next_known;
      }
      if (next_known < known->size() && (*known)[next_known].id == c) {
        const core::KnownStretch value = (*known)[next_known++];
        (*known)[kept++] = value;
        if (value.exact) {
          keep(core::Neighbor{c, value.value});
        } else {
          order.emplace_back(value.value, c, true);
        }
        continue;
      }
    }
    order.emplace_back(
        core::stretch_lower_bound(own.box, bounds[c].box), c, false);
    ++done.box_bounds;
  }
  std::make_heap(order.begin(), order.end(), std::greater<>{});

  std::vector<core::KnownStretch> fresh;
  while (!order.empty()) {
    std::pop_heap(order.begin(), order.end(), std::greater<>{});
    const auto [bound, c, slot_stage] = order.back();
    if (best.size() == count && bound > best.back().stretch) break;
    if (!slot_stage) {
      const double slot = std::max(
          bound, core::slot_lower_bound(own.slots, bounds[c].slots));
      ++done.slot_bounds;
      if (known != nullptr) fresh.push_back(core::KnownStretch{slot, c, false});
      order.back() = {slot, c, true};
      std::push_heap(order.begin(), order.end(), std::greater<>{});
      continue;
    }
    order.pop_back();
    const core::Neighbor found{
        c, core::fingerprint_stretch(fp, candidates[c], &done.sample_pairs)};
    ++done.evaluations;
    if (known != nullptr) {
      fresh.push_back(core::KnownStretch{found.stretch, c, true});
    }
    keep(found);
  }

  if (known != nullptr) {
    // The kept values and this search's, by id; of each id's values the
    // last computed is the furthest along the cascade.
    const auto by_id = [](const core::KnownStretch& x,
                          const core::KnownStretch& y) { return x.id < y.id; };
    known->resize(kept);
    std::stable_sort(fresh.begin(), fresh.end(), by_id);
    std::vector<core::KnownStretch> merged;
    std::merge(known->begin(), known->end(), fresh.begin(), fresh.end(),
               std::back_inserter(merged), by_id);
    known->clear();
    for (std::size_t i = 0; i < merged.size(); ++i) {
      if (i + 1 < merged.size() && merged[i + 1].id == merged[i].id) continue;
      known->push_back(merged[i]);
    }
  }
  if (tally != nullptr) *tally += done;
  return best;
}

double eager_least_box_bound(const core::FingerprintBounds& own,
                             std::span<const core::NodeBounds> bounds,
                             std::span<const std::uint32_t> ids) {
  double least = std::numeric_limits<double>::infinity();
  for (const std::uint32_t id : ids) {
    least = std::min(least, core::stretch_lower_bound(own, bounds[id].box));
  }
  return least;
}

}  // namespace glove::test
