#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "geom/circle.hpp"
#include "geom/region_model.hpp"
#include "geom/vec2.hpp"
#include "util/rng.hpp"

namespace manet::geom {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Vec2, Arithmetic) {
  const Vec2 a{3, 4};
  const Vec2 b{1, -2};
  EXPECT_EQ((a + b), (Vec2{4, 2}));
  EXPECT_EQ((a - b), (Vec2{2, 6}));
  EXPECT_EQ((a * 2), (Vec2{6, 8}));
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.dot(b), -5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::sqrt(4 + 36));
  const Vec2 u = a.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec2{}.normalized(), (Vec2{0, 0}));
}

TEST(Circle, ContainsAndArea) {
  const Circle c{{0, 0}, 2.0};
  EXPECT_TRUE(c.contains({1, 1}));
  EXPECT_TRUE(c.contains({2, 0}));  // boundary inclusive
  EXPECT_FALSE(c.contains({2.01, 0}));
  EXPECT_NEAR(c.area(), 4 * kPi, 1e-9);
}

TEST(LensArea, DegenerateCases) {
  EXPECT_DOUBLE_EQ(lens_area(1.0, 1.0, 2.0), 0.0);   // tangent
  EXPECT_DOUBLE_EQ(lens_area(1.0, 1.0, 5.0), 0.0);   // disjoint
  EXPECT_NEAR(lens_area(1.0, 1.0, 0.0), kPi, 1e-12); // coincident
  EXPECT_NEAR(lens_area(1.0, 3.0, 0.5), kPi, 1e-12); // contained
  EXPECT_DOUBLE_EQ(lens_area(0.0, 1.0, 0.5), 0.0);   // zero radius
}

TEST(LensArea, SymmetricInRadii) {
  EXPECT_NEAR(lens_area(2.0, 3.0, 2.5), lens_area(3.0, 2.0, 2.5), 1e-12);
}

TEST(LensArea, MatchesMonteCarlo) {
  util::Xoshiro256ss rng(1);
  const Circle a{{0, 0}, 550};
  const Circle b{{240, 0}, 550};
  // Uniform points in the bounding rectangle [-550, 790) x [-550, 550).
  const int samples = 400000;
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    const Vec2 p{rng.uniform(-550.0, 790.0), rng.uniform(-550.0, 550.0)};
    if (a.contains(p) && b.contains(p)) ++hits;
  }
  const double mc = 1340.0 * 1100.0 * hits / samples;
  const double exact = lens_area(550, 240);
  EXPECT_NEAR(mc / exact, 1.0, 0.02);
}

TEST(LensArea, MonotoneDecreasingInSeparation) {
  double prev = lens_area(550, 0.0);
  for (double d = 50; d < 1100; d += 50) {
    const double cur = lens_area(550, d);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(CrescentArea, ComplementsLens) {
  const Circle a{{0, 0}, 550};
  const Circle b{{240, 0}, 550};
  EXPECT_NEAR(crescent_area(a, b) + lens_area(550, 240), a.area(), 1e-6);
}

TEST(RegionModel, PaperGeometryAreasArePositiveAndConsistent) {
  const RegionModel model(240, 550);
  const RegionAreas& areas = model.areas();
  EXPECT_GT(areas.a1, 0);
  EXPECT_GT(areas.a2, 0);
  EXPECT_GT(areas.a3, 0);
  EXPECT_GT(areas.a4, 0);
  EXPECT_GT(areas.a5, 0);
  // A2 and A5 are the two crescents of equal-radius disks: equal areas.
  EXPECT_NEAR(areas.a2, areas.a5, 1e-6);
  // A3 and A4 split the lens evenly.
  EXPECT_NEAR(areas.a3, areas.a4, 1e-9);
  EXPECT_NEAR(areas.a3 + areas.a4, lens_area(550, 240), 1e-6);
  // A1 mirrors A2 by construction.
  EXPECT_NEAR(areas.a1, areas.a2, 1e-6);
}

TEST(RegionModel, ConditionalAreaFractions) {
  const RegionModel model(240, 550);
  EXPECT_NEAR(model.p_tx_in_a2() + model.p_tx_in_a1(), 1.0, 1e-12);
  EXPECT_GT(model.p_tx_in_a5(), 0.0);
  EXPECT_LT(model.p_tx_in_a5(), 1.0);
  // With a half-lens much larger than the crescent, A5/(A4+A5) < 1/2.
  EXPECT_LT(model.p_tx_in_a5(), 0.5);
}

TEST(RegionModel, ExpectedCountsScaleWithDensity) {
  const RegionModel model(240, 550);
  const double density = 1e-5;  // nodes per m^2
  EXPECT_NEAR(model.expected_n(density), model.areas().a2 * density, 1e-12);
  EXPECT_NEAR(model.expected_k(2 * density), 2 * model.expected_k(density), 1e-12);
}

TEST(RegionModel, RejectsInvalidGeometry) {
  EXPECT_THROW(RegionModel(0, 550), std::invalid_argument);
  EXPECT_THROW(RegionModel(-5, 550), std::invalid_argument);
  EXPECT_THROW(RegionModel(240, 0), std::invalid_argument);
  EXPECT_THROW(RegionModel(1200, 550), std::invalid_argument);  // > 2L
}

TEST(RegionModel, WiderSeparationGrowsExclusiveRegions) {
  const RegionModel narrow(100, 550);
  const RegionModel wide(500, 550);
  EXPECT_GT(wide.areas().a2, narrow.areas().a2);
  EXPECT_GT(wide.areas().a5, narrow.areas().a5);
  EXPECT_LT(wide.areas().a3, narrow.areas().a3);
}

}  // namespace
}  // namespace manet::geom
