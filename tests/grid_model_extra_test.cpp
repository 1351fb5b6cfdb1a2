// Additional grid-model and characterization coverage: coverage fractions,
// cell geometry, droop/position tables, and failure-injection paths.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/grid_model.h"
#include "thermal/grid_solver.h"

namespace rlplan::thermal {
namespace {

ChipletSystem simple_system() {
  return ChipletSystem("g", 40.0, 40.0, {{"die", 10.0, 10.0, 20.0}}, {});
}

TEST(GridModelGeometry, CellCentersTileTheInterposer) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = simple_system();
  ThermalGridModel model(stack, sys, {8, 8});
  // Corner cells.
  const Point first = model.cell_center_mm(0, 0);
  EXPECT_DOUBLE_EQ(first.x, 2.5);
  EXPECT_DOUBLE_EQ(first.y, 2.5);
  const Point last = model.cell_center_mm(7, 7);
  EXPECT_DOUBLE_EQ(last.x, 37.5);
  EXPECT_DOUBLE_EQ(last.y, 37.5);
}

TEST(GridModelGeometry, CoverageFractionExact) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = simple_system();
  ThermalGridModel model(stack, sys, {8, 8});  // 5 mm cells
  // A die footprint covering exactly cell (2,2) (mm rect [10,15]^2).
  const Rect exact{10.0, 10.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(model.coverage_fraction(2, 2, exact), 1.0);
  EXPECT_DOUBLE_EQ(model.coverage_fraction(2, 3, exact), 0.0);
  // Half-covering rect.
  const Rect half{10.0, 10.0, 2.5, 5.0};
  EXPECT_DOUBLE_EQ(model.coverage_fraction(2, 2, half), 0.5);
}

TEST(GridModelGeometry, NodeIndexingIsBijective) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = simple_system();
  ThermalGridModel model(stack, sys, {6, 7});
  std::vector<bool> seen(model.num_nodes(), false);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    for (std::size_t r = 0; r < 6; ++r) {
      for (std::size_t c = 0; c < 7; ++c) {
        const std::size_t idx = model.node(l, r, c);
        ASSERT_LT(idx, seen.size());
        EXPECT_FALSE(seen[idx]) << "duplicate node index";
        seen[idx] = true;
      }
    }
  }
}

TEST(GridModelGeometry, RejectsTinyGrids) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = simple_system();
  EXPECT_THROW(ThermalGridModel(stack, sys, {1, 8}), std::invalid_argument);
}

TEST(Characterization, DroopTableWithinUnitInterval) {
  const auto stack = LayerStack::default_2p5d();
  CharacterizationConfig config;
  config.solver.dims = {24, 24};
  config.auto_axis_points = 4;
  ThermalCharacterizer charac(stack, config);
  const auto model = charac.characterize(36.0, 36.0);
  const auto& droop = model.self_droop();
  ASSERT_FALSE(droop.empty());
  for (double s : {3.0, 8.0, 15.0, 25.0}) {
    const double d = droop.lookup(s, s);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
    // Dies on this stack are strongly coupled through the spreader, so the
    // corner-to-peak ratio stays high regardless of size.
    EXPECT_GT(d, 0.5);
  }
}

TEST(Characterization, UniformFloorPositive) {
  const auto stack = LayerStack::default_2p5d();
  CharacterizationConfig config;
  config.solver.dims = {24, 24};
  config.auto_axis_points = 4;
  ThermalCharacterizer charac(stack, config);
  const auto model = charac.characterize(36.0, 36.0);
  EXPECT_GT(model.uniform_floor(), 0.0);
  // Floor cannot exceed the closest-range mutual resistance.
  EXPECT_LE(model.uniform_floor(), model.mutual_table().lookup(0.0));
}

TEST(Characterization, PositionCorrectionBuiltWhenImagesOff) {
  const auto stack = LayerStack::default_2p5d();
  CharacterizationConfig config;
  config.solver.dims = {20, 20};
  config.auto_axis_points = 3;
  config.position_points = 3;
  config.model_config.use_images = false;
  ThermalCharacterizer charac(stack, config);
  const auto model = charac.characterize(36.0, 36.0);
  ASSERT_TRUE(model.has_position_correction());
  // Corners spread worse than center: factor > 1 off-center, == 1 center.
  const double center = model.position_correction().lookup(18.0, 18.0);
  const double corner = model.position_correction().lookup(4.0, 4.0);
  EXPECT_NEAR(center, 1.0, 0.05);
  EXPECT_GT(corner, center);
}

TEST(Characterization, ImagesSkipPositionSweep) {
  const auto stack = LayerStack::default_2p5d();
  CharacterizationConfig config;
  config.solver.dims = {20, 20};
  config.auto_axis_points = 3;
  config.model_config.use_images = true;  // default
  ThermalCharacterizer charac(stack, config);
  const auto model = charac.characterize(36.0, 36.0);
  EXPECT_FALSE(model.has_position_correction());
  EXPECT_EQ(charac.report().position_solves, 0u);
}

// Progress reports every probe solve once, done = 1, 2, ..., total, against
// a total fixed up front that counts exactly the solves that run: with
// images the position sweep is skipped; without them it is the centered
// solve plus position_points^2 placements.
TEST(Characterization, ProgressCountsEverySolveOnce) {
  const auto stack = LayerStack::default_2p5d();
  for (const bool images : {true, false}) {
    CharacterizationConfig config;
    config.solver.dims = {16, 16};
    config.auto_axis_points = 3;
    config.position_points = 3;
    config.model_config.use_images = images;
    ThermalCharacterizer charac(stack, config);
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    charac.characterize(36.0, 36.0, [&](std::size_t done, std::size_t total) {
      calls.emplace_back(done, total);
    });
    const CharacterizationReport& r = charac.report();
    EXPECT_EQ(r.self_solves, 9u);
    EXPECT_EQ(r.mutual_solves, 1u);
    EXPECT_EQ(r.position_solves, images ? 0u : 10u);
    const std::size_t solves =
        r.self_solves + r.mutual_solves + r.position_solves;
    ASSERT_EQ(calls.size(), solves) << "images=" << images;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].first, i + 1) << "images=" << images;
      EXPECT_EQ(calls[i].second, solves) << "images=" << images;
    }
  }
}

TEST(Characterization, ImageModelImprovesEdgeDiePrediction) {
  // A die at the corner must be predicted hotter than the same die centered
  // — the boundary effect the image construction exists to capture.
  const auto stack = LayerStack::default_2p5d();
  CharacterizationConfig config;
  config.solver.dims = {24, 24};
  config.auto_axis_points = 4;
  ThermalCharacterizer charac(stack, config);
  const auto model = charac.characterize(36.0, 36.0);

  const ChipletSystem sys("edge", 36.0, 36.0, {{"d", 8.0, 8.0, 20.0}}, {});
  Floorplan corner(sys);
  corner.place(0, {0.0, 0.0});
  Floorplan center(sys);
  center.place(0, {14.0, 14.0});
  const double t_corner = model.evaluate(sys, corner).max_temp_c;
  const double t_center = model.evaluate(sys, center).max_temp_c;
  EXPECT_GT(t_corner, t_center + 0.5);
}

}  // namespace
}  // namespace rlplan::thermal
