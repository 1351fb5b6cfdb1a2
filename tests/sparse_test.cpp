// The CSR matrix and Jacobi-preconditioned CG of the test-only grid solver
// oracle (grid_solver_oracle.h), which the library's stencil solver is
// checked against in grid_solver_test.
#include "grid_solver_oracle.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace rlplan::thermal {
namespace {

using grid_oracle::conjugate_gradient;
using grid_oracle::SparseMatrix;

TEST(SparseMatrix, BuildAndLookup) {
  SparseMatrix m(3);
  m.add(0, 0, 2.0);
  m.add(1, 1, 3.0);
  m.add(0, 1, -1.0);
  m.add(1, 0, -1.0);
  m.add(2, 2, 1.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  EXPECT_EQ(m.nnz(), 5u);
}

TEST(SparseMatrix, DuplicatesAreSummed) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.5);
  m.add(1, 1, 1.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.5);
  EXPECT_EQ(m.nnz(), 2u);
}

TEST(SparseMatrix, StampConductance) {
  SparseMatrix m(2);
  m.stamp_conductance(0, 1, 4.0);
  m.stamp_ground(0, 1.0);
  m.finalize();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -4.0);
  EXPECT_DOUBLE_EQ(m.symmetry_error(), 0.0);
}

TEST(SparseMatrix, AddAfterFinalizeThrows) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.finalize();
  EXPECT_THROW(m.add(1, 1, 1.0), std::logic_error);
}

TEST(SparseMatrix, FinalizeIdempotent) {
  SparseMatrix m(2);
  m.add(0, 0, 1.0);
  m.finalize();
  m.finalize();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
}

TEST(SparseMatrix, MultiplyKnownMatrix) {
  // [2 -1; -1 2] * [1; 1] = [1; 1]
  SparseMatrix m(2);
  m.stamp_conductance(0, 1, 1.0);
  m.stamp_ground(0, 1.0);
  m.stamp_ground(1, 1.0);
  m.finalize();
  const std::vector<double> x{1.0, 1.0};
  std::vector<double> y(2);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(SparseMatrix, EmptyRowsHandled) {
  SparseMatrix m(4);
  m.add(0, 0, 1.0);
  m.add(3, 3, 1.0);
  m.finalize();
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  std::vector<double> y(4);
  m.multiply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 4.0);
}

TEST(SparseMatrix, Diagonal) {
  SparseMatrix m(3);
  m.stamp_conductance(0, 1, 2.0);
  m.stamp_conductance(1, 2, 3.0);
  m.stamp_ground(2, 0.5);
  m.finalize();
  const auto d = m.diagonal();
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 3.5);
}

TEST(CgSolver, SolvesSmallSpdSystem) {
  // Laplacian chain with ground: known solution via direct inversion.
  SparseMatrix m(3);
  m.stamp_conductance(0, 1, 1.0);
  m.stamp_conductance(1, 2, 1.0);
  m.stamp_ground(0, 1.0);
  m.finalize();
  const std::vector<double> b{1.0, 0.0, 2.0};
  std::vector<double> x(3, 0.0);
  const CgResult r = conjugate_gradient(m, b, x);
  EXPECT_TRUE(r.converged);
  // Verify A x == b.
  std::vector<double> ax(3);
  m.multiply(x, ax);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-6);
}

TEST(CgSolver, RandomSpdSystemsProperty) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 10 + rng.uniform_int(std::uint64_t{40});
    SparseMatrix m(n);
    // Random connected chain plus extra conductances => SPD with ground.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      m.stamp_conductance(i, i + 1, rng.uniform(0.5, 5.0));
    }
    for (int e = 0; e < 10; ++e) {
      const auto a = rng.uniform_int(std::uint64_t{n});
      const auto b = rng.uniform_int(std::uint64_t{n});
      if (a != b) m.stamp_conductance(a, b, rng.uniform(0.1, 2.0));
    }
    m.stamp_ground(0, 1.0);
    m.finalize();
    EXPECT_DOUBLE_EQ(m.symmetry_error(), 0.0);

    std::vector<double> b_vec(n), x(n, 0.0);
    for (auto& v : b_vec) v = rng.uniform(-1.0, 1.0);
    const CgResult r = conjugate_gradient(m, b_vec, x, {1e-10, 2000});
    EXPECT_TRUE(r.converged) << "trial " << trial;
    std::vector<double> ax(n);
    m.multiply(x, ax);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(ax[i], b_vec[i], 1e-6) << "trial " << trial;
    }
  }
}

TEST(CgSolver, WarmStartConvergesFaster) {
  SparseMatrix m(50);
  for (std::size_t i = 0; i + 1 < 50; ++i) m.stamp_conductance(i, i + 1, 1.0);
  m.stamp_ground(0, 0.5);
  m.finalize();
  std::vector<double> b(50, 1.0);
  std::vector<double> cold(50, 0.0);
  const CgResult cold_result = conjugate_gradient(m, b, cold);
  // Warm start from the solution: should converge immediately.
  std::vector<double> warm = cold;
  const CgResult warm_result = conjugate_gradient(m, b, warm);
  EXPECT_LE(warm_result.iterations, 1u);
  EXPECT_GT(cold_result.iterations, 5u);
}

TEST(CgSolver, ZeroRhsGivesZeroSolution) {
  SparseMatrix m(5);
  for (std::size_t i = 0; i + 1 < 5; ++i) m.stamp_conductance(i, i + 1, 1.0);
  m.stamp_ground(0, 1.0);
  m.finalize();
  const std::vector<double> b(5, 0.0);
  std::vector<double> x(5, 0.0);
  const CgResult r = conjugate_gradient(m, b, x);
  EXPECT_TRUE(r.converged);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
}  // namespace rlplan::thermal
