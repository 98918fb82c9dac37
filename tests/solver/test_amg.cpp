// Unit tests for the aggregation AMG hierarchy and preconditioner.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/amg.hpp"
#include "solver/pcg.hpp"
#include "solver_test_utils.hpp"

namespace sgl::solver {
namespace {

TEST(Amg, BuildsMultipleLevelsOnLargeGrid) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(40, 40).graph);
  const AmgHierarchy h(a);
  EXPECT_GE(h.num_levels(), 3);
  EXPECT_EQ(h.size(), a.rows());
}

TEST(Amg, SmallMatrixIsSingleLevel) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_path(10));
  AmgOptions options;
  options.coarse_size = 64;
  const AmgHierarchy h(a, options);
  EXPECT_EQ(h.num_levels(), 1);
}

TEST(Amg, OperatorComplexityIsModest) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(50, 50).graph);
  const AmgHierarchy h(a);
  EXPECT_LT(h.operator_complexity(), 2.5);
  EXPECT_GE(h.operator_complexity(), 1.0);
}

TEST(Amg, VCycleReducesResidual) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(30, 30).graph);
  const AmgHierarchy h(a);
  Rng rng(4);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  la::Vector x;
  h.v_cycle(b, x);
  la::Vector residual = b;
  const la::Vector ax = a.multiply(x);
  la::axpy(-1.0, ax, residual);
  EXPECT_LT(la::norm2(residual), 0.7 * la::norm2(b));
}

TEST(Amg, SolvesExactlyAtCoarseScale) {
  // When the whole problem fits the coarse solver, one cycle is a direct
  // solve.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(5, 5).graph);
  AmgOptions options;
  options.coarse_size = 64;
  const AmgHierarchy h(a, options);
  Rng rng(5);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  la::Vector x;
  h.v_cycle(b, x);
  const la::Vector ax = a.multiply(x);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

class AmgGridSweep : public ::testing::TestWithParam<Index> {};

TEST_P(AmgGridSweep, PcgWithAmgConvergesFastOnGrids) {
  const Index size = GetParam();
  const la::CsrMatrix a =
      grounded_laplacian(graph::make_grid2d(size, size).graph);
  Rng rng(6);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();

  const AmgPreconditioner amg(a);
  la::Vector x;
  PcgOptions options;
  options.rel_tolerance = 1e-10;
  const PcgResult r = pcg_solve(a, b, x, amg, options);
  EXPECT_TRUE(r.converged);
  // Mesh-independent-ish convergence: far fewer iterations than the
  // unpreconditioned O(size) growth.
  EXPECT_LE(r.iterations, 60);
}

INSTANTIATE_TEST_SUITE_P(GridSizes, AmgGridSweep,
                         ::testing::Values(Index{10}, Index{20}, Index{40},
                                           Index{60}));

TEST(Amg, PreconditionerIsSymmetric) {
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(12, 12).graph);
  const AmgPreconditioner amg(a);
  Rng rng(7);
  la::Vector r(static_cast<std::size_t>(a.rows()));
  la::Vector s(static_cast<std::size_t>(a.rows()));
  for (auto& v : r) v = rng.normal();
  for (auto& v : s) v = rng.normal();
  la::Vector mr, ms;
  amg.apply(r, mr);
  amg.apply(s, ms);
  EXPECT_NEAR(la::dot(s, mr), la::dot(r, ms), 1e-8 * la::norm2(r) * la::norm2(s));
}

TEST(Amg, ApplyBlockMatchesApplyBitwise) {
  // The real block V-cycle override must equal b scalar V-cycles exactly,
  // for every thread count.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(17, 13).graph);
  const AmgPreconditioner amg(a);
  const la::MultiVector r = random_block_rhs(a.rows(), 5, 35);
  la::MultiVector z(a.rows(), 5);
  for (const Index threads : {1, 2, 4, 8}) {
    amg.apply_block(r.view(), z.view(), threads);
    for (Index j = 0; j < r.cols(); ++j) {
      la::Vector rj(r.col(j).begin(), r.col(j).end());
      la::Vector ref;
      amg.apply(rj, ref);
      for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(z(i, j), ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j;
    }
  }
}

TEST(Amg, ApplyBlockMatchesApplyBitwiseAboveScatterThreshold) {
  // A fine level past the transposed scatter's chunked-combine row count
  // exercises the chunked restriction combine; the block path must
  // reproduce it.
  const la::CsrMatrix a = grounded_laplacian(graph::make_grid2d(72, 70).graph);
  ASSERT_GE(a.rows(), la::detail::kSpmvTransposeChunks *
                          la::detail::kSpmvTransposeMinChunkRows);
  const AmgPreconditioner amg(a);
  const la::MultiVector r = random_block_rhs(a.rows(), 3, 36);
  la::MultiVector z(a.rows(), 3);
  for (const Index threads : {1, 4}) {
    amg.apply_block(r.view(), z.view(), threads);
    for (Index j = 0; j < r.cols(); ++j) {
      la::Vector rj(r.col(j).begin(), r.col(j).end());
      la::Vector ref;
      amg.apply(rj, ref);
      for (Index i = 0; i < a.rows(); ++i)
        EXPECT_EQ(z(i, j), ref[static_cast<std::size_t>(i)])
            << "threads=" << threads << " col=" << j;
    }
  }
}

TEST(Amg, WorksOnWeightedCircuitGrid) {
  const graph::MeshGraph mesh = graph::make_circuit_grid(25, 25, 0, 0.5, 5.0, 3);
  const la::CsrMatrix a = grounded_laplacian(mesh.graph);
  Rng rng(8);
  la::Vector b(static_cast<std::size_t>(a.rows()));
  for (auto& v : b) v = rng.normal();
  const AmgPreconditioner amg(a);
  la::Vector x;
  const PcgResult r = pcg_solve(a, b, x, amg);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace sgl::solver
