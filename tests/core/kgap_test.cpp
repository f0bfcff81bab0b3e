#include "glove/core/kgap.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/fixtures.hpp"
#include "common/naive_kgap.hpp"
#include "glove/synth/generator.hpp"

namespace glove::core {
namespace {

using test::cell;

cdr::FingerprintDataset triangle_dataset() {
  // Users 0 and 1 are near-identical; user 2 is far from both.
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0),
                                                cell(100, 0, 600)});
  fps.emplace_back(1u, std::vector<cdr::Sample>{cell(0, 0, 2),
                                                cell(100, 0, 605)});
  fps.emplace_back(2u, std::vector<cdr::Sample>{cell(15'000, 15'000, 100),
                                                cell(15'000, 15'000, 900)});
  return cdr::FingerprintDataset{std::move(fps)};
}

TEST(KGap, NearestNeighborIsSelected) {
  const auto entries = k_gaps(triangle_dataset(), 2);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].neighbors, std::vector<std::size_t>{1});
  EXPECT_EQ(entries[1].neighbors, std::vector<std::size_t>{0});
  // The outlier's nearest is one of the close pair.
  ASSERT_EQ(entries[2].neighbors.size(), 1u);
}

TEST(KGap, CloseUsersHaveSmallGap) {
  const auto entries = k_gaps(triangle_dataset(), 2);
  EXPECT_LT(entries[0].gap, 0.01);
  EXPECT_GT(entries[2].gap, entries[0].gap * 10);
}

TEST(KGap, DuplicateFingerprintsAreAlreadyAnonymous) {
  std::vector<cdr::Fingerprint> fps;
  fps.emplace_back(0u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  fps.emplace_back(1u, std::vector<cdr::Sample>{cell(0, 0, 0)});
  fps.emplace_back(2u, std::vector<cdr::Sample>{cell(9'000, 0, 400)});
  const auto gaps = k_gap_values(cdr::FingerprintDataset{std::move(fps)}, 2);
  EXPECT_DOUBLE_EQ(gaps[0], 0.0);
  EXPECT_DOUBLE_EQ(gaps[1], 0.0);
  EXPECT_GT(gaps[2], 0.0);
}

TEST(KGap, GrowsWithK) {
  // With k=3 the near pair must also absorb the outlier, raising the gap.
  const auto k2 = k_gap_values(triangle_dataset(), 2);
  const auto k3 = k_gap_values(triangle_dataset(), 3);
  for (std::size_t i = 0; i < k2.size(); ++i) {
    EXPECT_GE(k3[i], k2[i]);
  }
  EXPECT_GT(k3[0], k2[0]);
}

TEST(KGap, ValuesWithinUnitInterval) {
  const auto gaps = k_gap_values(triangle_dataset(), 3);
  for (const double g : gaps) {
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 1.0);
  }
}

TEST(KGap, NeighborCountIsKMinusOne) {
  std::vector<cdr::Fingerprint> fps;
  for (cdr::UserId u = 0; u < 10; ++u) {
    fps.emplace_back(u, std::vector<cdr::Sample>{
                            cell(u * 200.0, 0, u * 10.0)});
  }
  const auto entries = k_gaps(cdr::FingerprintDataset{std::move(fps)}, 5);
  for (const auto& e : entries) {
    EXPECT_EQ(e.neighbors.size(), 4u);
  }
}

TEST(KGap, MatchesManualAverageOfNearestStretches) {
  const cdr::FingerprintDataset data = triangle_dataset();
  const auto entries = k_gaps(data, 3);
  // For k=3 every other user is a neighbour; gap = mean of both stretches.
  const double expected0 = (fingerprint_stretch(data[0], data[1]) +
                            fingerprint_stretch(data[0], data[2])) /
                           2.0;
  EXPECT_DOUBLE_EQ(entries[0].gap, expected0);
}

TEST(KGap, RejectsInvalidArguments) {
  EXPECT_THROW((void)k_gaps(triangle_dataset(), 1), std::invalid_argument);
  EXPECT_THROW((void)k_gaps(triangle_dataset(), 4), std::invalid_argument);
}

TEST(KGap, DeterministicAcrossRuns) {
  const auto a = k_gap_values(triangle_dataset(), 2);
  const auto b = k_gap_values(triangle_dataset(), 2);
  EXPECT_EQ(a, b);
}

TEST(KGap, MatchesNaiveReference) {
  // Each row of k_gaps is a bounded nearest search; its gaps must equal a
  // full scan's bit for bit and its neighbour lists entry for entry.  The
  // inputs: a synthetic population; three copies of each of four
  // fingerprints, so rows tie exactly at 0 and at the copies' shared
  // stretch, and only the index breaks the ties; and two clusters 400 km
  // apart, so the far cluster is pruned from every row.
  synth::SynthConfig config = synth::civ_like(60, 37);
  config.days = 3.0;
  std::vector<std::pair<const char*, cdr::FingerprintDataset>> inputs;
  inputs.emplace_back("civ_like", synth::generate_dataset(config));

  std::vector<cdr::Fingerprint> copies;
  for (cdr::UserId u = 0; u < 12; ++u) {
    const double shape = static_cast<double>(u % 4);
    copies.emplace_back(u, std::vector<cdr::Sample>{
                               cell(shape * 300.0, 0, shape * 10.0),
                               cell(shape * 300.0, 200, 600 + shape * 10.0)});
  }
  inputs.emplace_back("copies", cdr::FingerprintDataset{std::move(copies)});

  std::vector<cdr::Fingerprint> clusters;
  for (cdr::UserId u = 0; u < 16; ++u) {
    const double base = u < 8 ? 0.0 : 400'000.0;
    clusters.emplace_back(u, std::vector<cdr::Sample>{
                                 cell(base + u * 100.0, 0, u * 10.0),
                                 cell(base + u * 100.0, 0, 700 + u * 10.0)});
  }
  inputs.emplace_back("clusters",
                      cdr::FingerprintDataset{std::move(clusters)});

  for (const auto& [name, data] : inputs) {
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      const std::vector<KGapEntry> fast = k_gaps(data, k);
      const std::vector<KGapEntry> naive = test::naive_k_gaps(data, k);
      ASSERT_EQ(fast.size(), naive.size()) << name << " k=" << k;
      for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fast[i].gap),
                  std::bit_cast<std::uint64_t>(naive[i].gap))
            << name << " k=" << k << " row " << i;
        EXPECT_EQ(fast[i].neighbors, naive[i].neighbors)
            << name << " k=" << k << " row " << i;
      }
    }
  }
}

}  // namespace
}  // namespace glove::core
