#include "glove/core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "glove/core/accuracy.hpp"
#include "glove/synth/generator.hpp"

namespace glove::core {
namespace {

cdr::Sample cell(double x, double y, double t) {
  cdr::Sample s;
  s.sigma = cdr::SpatialExtent{x, 100.0, y, 100.0};
  s.tau = cdr::TemporalExtent{t, 1.0};
  return s;
}

cdr::FingerprintDataset base_release() {
  synth::SynthConfig config = synth::civ_like(40, 71);
  config.days = 3.0;
  const cdr::FingerprintDataset data = synth::generate_dataset(config);
  return anonymize(data, {}).anonymized;
}

cdr::FingerprintDataset newcomers(std::size_t count, std::uint64_t seed) {
  synth::SynthConfig config = synth::civ_like(count, seed);
  config.days = 3.0;
  cdr::FingerprintDataset data = synth::generate_dataset(config);
  // Re-id users so they do not collide with the base release.
  std::vector<cdr::Fingerprint> shifted;
  for (std::size_t i = 0; i < data.size(); ++i) {
    shifted.emplace_back(static_cast<cdr::UserId>(10'000 + i),
                         std::vector<cdr::Sample>{data[i].samples().begin(),
                                                  data[i].samples().end()});
  }
  return cdr::FingerprintDataset{std::move(shifted), "newcomers"};
}

TEST(IncrementalUpdate, PreservesKAnonymity) {
  const cdr::FingerprintDataset base = base_release();
  const UpdateResult update = anonymize_update(base, newcomers(12, 72), {});
  EXPECT_TRUE(is_k_anonymous(update.anonymized, 2));
}

TEST(IncrementalUpdate, NoUserLostOrDuplicated) {
  const cdr::FingerprintDataset base = base_release();
  const cdr::FingerprintDataset extra = newcomers(12, 73);
  const UpdateResult update = anonymize_update(base, extra, {});
  std::set<cdr::UserId> users;
  std::size_t total = 0;
  for (const auto& fp : update.anonymized.fingerprints()) {
    users.insert(fp.members().begin(), fp.members().end());
    total += fp.group_size();
  }
  EXPECT_EQ(users.size(), total);  // no duplicates
  EXPECT_EQ(total, base.total_users() + extra.size());
}

TEST(IncrementalUpdate, ExistingGroupsNeverSplit) {
  // Every group of the base release must survive as a (superset) group of
  // the update: attackers holding both releases learn nothing from group
  // intersections.
  const cdr::FingerprintDataset base = base_release();
  const UpdateResult update = anonymize_update(base, newcomers(10, 74), {});
  for (const auto& old_group : base.fingerprints()) {
    const std::set<cdr::UserId> old_members{old_group.members().begin(),
                                            old_group.members().end()};
    bool found_superset = false;
    for (const auto& new_group : update.anonymized.fingerprints()) {
      const std::set<cdr::UserId> members{new_group.members().begin(),
                                          new_group.members().end()};
      if (std::includes(members.begin(), members.end(), old_members.begin(),
                        old_members.end())) {
        found_superset = true;
        break;
      }
    }
    EXPECT_TRUE(found_superset);
  }
}

TEST(IncrementalUpdate, AccountsEveryNewcomer) {
  const cdr::FingerprintDataset base = base_release();
  const cdr::FingerprintDataset extra = newcomers(15, 75);
  const UpdateResult update = anonymize_update(base, extra, {});
  EXPECT_EQ(update.stats.new_users, extra.size());
  EXPECT_LE(update.stats.joined_existing_groups, extra.size());
  // Everyone who did not join an existing group ended up in a new one.
  EXPECT_EQ(update.anonymized.total_users(),
            base.total_users() + extra.size());
}

TEST(IncrementalUpdate, FewNewcomersJoinGroups) {
  // A single newcomer cannot form a group of 2: it must join.
  const cdr::FingerprintDataset base = base_release();
  const UpdateResult update = anonymize_update(base, newcomers(1, 76), {});
  EXPECT_EQ(update.stats.joined_existing_groups, 1u);
  EXPECT_EQ(update.stats.formed_new_groups, 0u);
  EXPECT_TRUE(is_k_anonymous(update.anonymized, 2));
}

TEST(IncrementalUpdate, NewcomerCoverageMaintained) {
  // Truthfulness extends to newcomers: their samples are covered by their
  // group's published fingerprint (no suppression configured).
  const cdr::FingerprintDataset base = base_release();
  const cdr::FingerprintDataset extra = newcomers(8, 77);
  const UpdateResult update = anonymize_update(base, extra, {});
  EXPECT_EQ(count_uncovered_samples(extra, update.anonymized), 0u);
}

TEST(IncrementalUpdate, EmptyNewcomerSetIsIdentity) {
  // A window with no newcomers must republish the release unchanged —
  // this is what lets a serve epoch skip cleanly when every event in a
  // window came from already-published users.
  const cdr::FingerprintDataset base = base_release();
  const UpdateResult update =
      anonymize_update(base, cdr::FingerprintDataset{}, {});
  EXPECT_EQ(update.stats.new_users, 0u);
  EXPECT_EQ(update.stats.joined_existing_groups, 0u);
  EXPECT_EQ(update.stats.formed_new_groups, 0u);
  ASSERT_EQ(update.anonymized.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& got = update.anonymized[i];
    EXPECT_TRUE(std::equal(got.members().begin(), got.members().end(),
                           base[i].members().begin(),
                           base[i].members().end()));
    EXPECT_TRUE(std::equal(got.samples().begin(), got.samples().end(),
                           base[i].samples().begin(),
                           base[i].samples().end()));
  }
}

TEST(IncrementalUpdate, FewerNewcomersThanKAllJoinExistingGroups) {
  // Two newcomers under k=3 cannot form a group of their own: both must
  // join published groups, and the result stays 3-anonymous.
  GloveConfig config;
  config.k = 3;
  synth::SynthConfig synth_config = synth::civ_like(30, 79);
  synth_config.days = 3.0;
  const cdr::FingerprintDataset base =
      anonymize(synth::generate_dataset(synth_config), config).anonymized;
  ASSERT_TRUE(is_k_anonymous(base, 3));

  const UpdateResult update =
      anonymize_update(base, newcomers(2, 80), config);
  EXPECT_EQ(update.stats.joined_existing_groups, 2u);
  EXPECT_EQ(update.stats.formed_new_groups, 0u);
  EXPECT_TRUE(is_k_anonymous(update.anonymized, 3));
  EXPECT_EQ(update.anonymized.total_users(), base.total_users() + 2);
  // No greedy pass ran: the count is the placement searches' alone.
  EXPECT_GT(update.stats.glove.stretch_evaluations, 0u);
}

TEST(IncrementalUpdate, RejectsNewcomerIdAlreadyPublished) {
  const cdr::FingerprintDataset base = base_release();
  const cdr::UserId taken = base[0].members().front();
  std::vector<cdr::Fingerprint> dupes;
  dupes.emplace_back(taken, std::vector<cdr::Sample>{cell(0, 0, 0)});
  try {
    (void)anonymize_update(
        base, cdr::FingerprintDataset{std::move(dupes)}, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(std::to_string(taken)), std::string::npos)
        << message;
    EXPECT_NE(message.find("appears in both"), std::string::npos)
        << message;
  }
}

TEST(IncrementalUpdate, RejectsUnanonymizedBase) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  const cdr::FingerprintDataset base{std::move(fps)};
  EXPECT_THROW((void)anonymize_update(base, newcomers(2, 78), {}),
               std::invalid_argument);
}

TEST(IncrementalUpdate, RejectsGroupedNewcomers) {
  const cdr::FingerprintDataset base = base_release();
  std::vector<cdr::Fingerprint> grouped;
  grouped.emplace_back(std::vector<cdr::UserId>{20'000u, 20'001u},
                       std::vector<cdr::Sample>{cell(0, 0, 0)});
  EXPECT_THROW((void)anonymize_update(
                   base, cdr::FingerprintDataset{std::move(grouped)}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace glove::core
