#include "glove/cdr/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace glove::cdr {

Fingerprint::Fingerprint(UserId user, std::vector<Sample> samples)
    : members_{user}, samples_{std::move(samples)} {
  sort_samples();
}

Fingerprint::Fingerprint(std::vector<UserId> members,
                         std::vector<Sample> samples)
    : members_{std::move(members)}, samples_{std::move(samples)} {
  if (members_.empty()) {
    // glove-lint: allow(throw-context, in-memory value-type precondition;
    // deserializers re-anchor failures to the offending file)
    throw std::invalid_argument{"fingerprint needs at least one member"};
  }
  sort_samples();
}

Fingerprint Fingerprint::from_time_sorted(std::vector<UserId> members,
                                          std::vector<Sample> samples) {
  if (members.empty()) {
    // glove-lint: allow(throw-context, in-memory value-type precondition;
    // deserializers re-anchor failures to the offending file)
    throw std::invalid_argument{"fingerprint needs at least one member"};
  }
  Fingerprint fp;
  fp.members_ = std::move(members);
  fp.samples_ = std::move(samples);
  return fp;
}

UserId Fingerprint::representative() const {
  if (members_.empty()) {
    // glove-lint: allow(throw-context, in-memory value-type invariant; a
    // default-constructed fingerprint has no backing file)
    throw std::logic_error{"fingerprint has no members"};
  }
  return *std::min_element(members_.begin(), members_.end());
}

std::uint64_t Fingerprint::total_contributors() const noexcept {
  std::uint64_t total = 0;
  for (const Sample& s : samples_) total += s.contributors;
  return total;
}

void Fingerprint::sort_samples() {
  std::sort(samples_.begin(), samples_.end(), by_time);
}

void Fingerprint::absorb_members(const Fingerprint& other) {
  members_.insert(members_.end(), other.members_.begin(),
                  other.members_.end());
}

void check_members(std::span<const UserId> members,
                   const std::string& context) {
  if (members.size() < 2) return;
  std::vector<UserId> sorted{members.begin(), members.end()};
  std::sort(sorted.begin(), sorted.end());
  const auto duplicate = std::adjacent_find(sorted.begin(), sorted.end());
  if (duplicate != sorted.end()) {
    throw util::DatasetError{context + ": duplicate user id " +
                             std::to_string(*duplicate) + " in members field"};
  }
}

void add_distinct_users(std::vector<UserId>& users,
                        std::span<const Fingerprint> fingerprints,
                        const std::string& context) {
  const auto known = static_cast<std::ptrdiff_t>(users.size());
  for (const Fingerprint& fp : fingerprints) {
    users.insert(users.end(), fp.members().begin(), fp.members().end());
  }
  std::sort(users.begin() + known, users.end());
  std::inplace_merge(users.begin(), users.begin() + known, users.end());
  const auto repeated = std::adjacent_find(users.begin(), users.end());
  if (repeated != users.end()) {
    throw util::DatasetError{context + ": user id " +
                             std::to_string(*repeated) +
                             " appears more than once"};
  }
}

void check_generalized(const Fingerprint& group) {
  for (const Sample& s : group.samples()) {
    if (std::isfinite(s.sigma.x) && std::isfinite(s.sigma.dx) &&
        std::isfinite(s.sigma.y) && std::isfinite(s.sigma.dy) &&
        std::isfinite(s.tau.t) && std::isfinite(s.tau.dt)) {
      continue;
    }
    std::string context = "generalizing users";
    char separator = ' ';
    for (const UserId id : group.members()) {
      context += separator + std::to_string(id);
      separator = '+';
    }
    check_sample(s, context);
  }
}

}  // namespace glove::cdr
