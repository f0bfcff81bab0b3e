#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "glove/geo/geo.hpp"

namespace glove::geo {
namespace {

TEST(Grid, DefaultCellIs100m) {
  const Grid grid;
  EXPECT_DOUBLE_EQ(grid.cell_size_m(), 100.0);
}

TEST(Grid, RejectsNonPositiveCell) {
  EXPECT_THROW(Grid{0.0}, std::invalid_argument);
  EXPECT_THROW(Grid{-5.0}, std::invalid_argument);
}

TEST(Grid, CellOfOriginIsZero) {
  const Grid grid{100.0};
  const GridCell c = grid.cell_of({0.0, 0.0});
  EXPECT_EQ(c.ix, 0);
  EXPECT_EQ(c.iy, 0);
}

TEST(Grid, PointsInsideSameCellShareIndex) {
  const Grid grid{100.0};
  EXPECT_EQ(grid.cell_of({10.0, 10.0}), grid.cell_of({99.9, 0.1}));
}

TEST(Grid, NegativeCoordinatesFloorCorrectly) {
  const Grid grid{100.0};
  const GridCell c = grid.cell_of({-0.5, -150.0});
  EXPECT_EQ(c.ix, -1);
  EXPECT_EQ(c.iy, -2);
}

TEST(Grid, CellOfRefusesAnIndexOutsideInt32) {
  const Grid grid{100.0};
  for (const double bad : {std::nan(""), 1e300, -1e300, 100.0 * 2147483648.0,
                           -100.0 * 2147483649.0}) {
    EXPECT_THROW((void)grid.cell_of({bad, 0.0}), std::out_of_range) << bad;
    EXPECT_THROW((void)grid.cell_of({0.0, bad}), std::out_of_range) << bad;
  }
  EXPECT_EQ(grid.cell_of({100.0 * 2147483647.0 + 50.0, 0.0}).ix, 2147483647);
  EXPECT_EQ(grid.cell_of({0.0, -100.0 * 2147483648.0}).iy, -2147483647 - 1);
}

TEST(Grid, CellOriginIsSouthWestCorner) {
  const Grid grid{100.0};
  const PlanarPoint origin = grid.cell_origin(GridCell{3, -2});
  EXPECT_DOUBLE_EQ(origin.x_m, 300.0);
  EXPECT_DOUBLE_EQ(origin.y_m, -200.0);
}

TEST(Grid, CellCenterIsMidpoint) {
  const Grid grid{100.0};
  const PlanarPoint center = grid.cell_center(GridCell{0, 0});
  EXPECT_DOUBLE_EQ(center.x_m, 50.0);
  EXPECT_DOUBLE_EQ(center.y_m, 50.0);
}

TEST(Grid, SnapIsIdempotent) {
  const Grid grid{100.0};
  const PlanarPoint p{123.4, 567.8};
  const PlanarPoint snapped = grid.snap(p);
  const PlanarPoint twice = grid.snap(snapped);
  EXPECT_DOUBLE_EQ(snapped.x_m, twice.x_m);
  EXPECT_DOUBLE_EQ(snapped.y_m, twice.y_m);
}

TEST(Grid, SnapNeverMovesMoreThanCellDiagonal) {
  const Grid grid{100.0};
  for (double x = -500.0; x <= 500.0; x += 37.3) {
    for (double y = -500.0; y <= 500.0; y += 41.7) {
      const PlanarPoint snapped = grid.snap({x, y});
      EXPECT_LE(x - snapped.x_m, 100.0);
      EXPECT_GE(x - snapped.x_m, 0.0);
      EXPECT_LE(y - snapped.y_m, 100.0);
      EXPECT_GE(y - snapped.y_m, 0.0);
    }
  }
}

TEST(GridCell, HashSpreadsNeighbors) {
  // Neighbouring cells must hash to distinct values (hash quality smoke
  // test for the unordered containers keyed on cells).
  std::unordered_set<std::size_t> hashes;
  const std::hash<GridCell> hasher;
  for (std::int32_t ix = -10; ix <= 10; ++ix) {
    for (std::int32_t iy = -10; iy <= 10; ++iy) {
      hashes.insert(hasher(GridCell{ix, iy}));
    }
  }
  EXPECT_EQ(hashes.size(), 21u * 21u);
}

TEST(GridCell, EqualityComparesBothAxes) {
  EXPECT_EQ((GridCell{1, 2}), (GridCell{1, 2}));
  EXPECT_NE((GridCell{1, 2}), (GridCell{2, 1}));
}

}  // namespace
}  // namespace glove::geo
