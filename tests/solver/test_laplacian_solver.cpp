// Unit tests for the Laplacian pseudo-inverse facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::solver {
namespace {

TEST(LaplacianSolver, ApplyInvertsOnCenteredVectors) {
  const graph::Graph g = graph::make_grid2d(6, 7).graph;
  const LaplacianPinvSolver pinv(g);
  Rng rng(1);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : y) v = rng.normal();
  la::center(y);

  const la::Vector x = pinv.apply(y);
  const la::Vector lx = g.laplacian().multiply(x);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_NEAR(lx[i], y[i], 1e-9);
}

TEST(LaplacianSolver, ResultIsOrthogonalToOnes) {
  const graph::Graph g = graph::make_cycle(12);
  const LaplacianPinvSolver pinv(g);
  la::Vector y(12, 0.0);
  y[0] = 1.0;
  y[7] = -1.0;
  const la::Vector x = pinv.apply(y);
  EXPECT_NEAR(la::mean(x), 0.0, 1e-12);
}

TEST(LaplacianSolver, NullspaceComponentIsIgnored) {
  // L⁺(y + c·1) = L⁺y — adding a constant to the rhs must not change x.
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  const LaplacianPinvSolver pinv(g);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()), 0.0);
  y[3] = 2.0;
  y[20] = -2.0;
  la::Vector y_shifted = y;
  for (auto& v : y_shifted) v += 5.0;
  const la::Vector x1 = pinv.apply(y);
  const la::Vector x2 = pinv.apply(y_shifted);
  for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);
}

TEST(LaplacianSolver, PathEffectiveResistanceIsHopCount) {
  const graph::Graph g = graph::make_path(10);
  const LaplacianPinvSolver pinv(g);
  EXPECT_NEAR(pinv.effective_resistance(0, 9), 9.0, 1e-9);
  EXPECT_NEAR(pinv.effective_resistance(2, 5), 3.0, 1e-9);
}

TEST(LaplacianSolver, CycleEffectiveResistanceIsParallelFormula) {
  // On a cycle of n unit resistors, Reff(s,t) = k(n−k)/n for hop distance k.
  const Index n = 12;
  const graph::Graph g = graph::make_cycle(n);
  const LaplacianPinvSolver pinv(g);
  EXPECT_NEAR(pinv.effective_resistance(0, 3), 3.0 * 9.0 / 12.0, 1e-9);
  EXPECT_NEAR(pinv.effective_resistance(0, 6), 6.0 * 6.0 / 12.0, 1e-9);
}

TEST(LaplacianSolver, WeightsScaleResistanceInversely) {
  graph::Graph g(2);
  g.add_edge(0, 1, 4.0);
  const LaplacianPinvSolver pinv(g);
  EXPECT_NEAR(pinv.effective_resistance(0, 1), 0.25, 1e-12);
}

TEST(LaplacianSolver, RayleighMonotonicity) {
  // Adding an edge can only decrease effective resistances.
  graph::Graph g = graph::make_path(8);
  const LaplacianPinvSolver before(g);
  const Real r_before = before.effective_resistance(0, 7);
  g.add_edge(0, 7, 1.0);
  const LaplacianPinvSolver after(g);
  const Real r_after = after.effective_resistance(0, 7);
  EXPECT_LT(r_after, r_before);
  // Parallel of 7Ω path and 1Ω edge: 7/8 Ω.
  EXPECT_NEAR(r_after, 7.0 / 8.0, 1e-9);
}

class LaplacianMethodSweep : public ::testing::TestWithParam<LaplacianMethod> {};

TEST_P(LaplacianMethodSweep, AllMethodsAgree) {
  const graph::Graph g = graph::make_grid2d(9, 9).graph;
  LaplacianSolverOptions options;
  options.method = GetParam();
  const LaplacianPinvSolver pinv(g, options);

  LaplacianSolverOptions reference_options;
  reference_options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver reference(g, reference_options);

  Rng rng(2);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()));
  for (auto& v : y) v = rng.normal();
  la::center(y);
  const la::Vector a = pinv.apply(y);
  const la::Vector b = reference.apply(y);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Methods, LaplacianMethodSweep,
                         ::testing::Values(LaplacianMethod::kCholesky,
                                           LaplacianMethod::kPcgJacobi,
                                           LaplacianMethod::kPcgIc0,
                                           LaplacianMethod::kPcgTree,
                                           LaplacianMethod::kPcgAmg));

// --- Solver-method agreement across graph families ----------------------
// Every method must produce the same L⁺ action — via apply() and via
// apply_block() — on a path, a mesh, and a torus, within 1e-8 of the
// Cholesky reference.

struct MethodGraphCase {
  LaplacianMethod method;
  const char* graph;
};

graph::Graph agreement_graph(const std::string& name) {
  if (name == "path") return graph::make_path(60);
  if (name == "mesh") return graph::make_grid2d(9, 9).graph;
  return graph::make_grid2d(8, 8, /*periodic=*/true).graph;  // torus
}

class MethodGraphAgreement
    : public ::testing::TestWithParam<MethodGraphCase> {};

TEST_P(MethodGraphAgreement, ApplyAndApplyBlockMatchCholeskyReference) {
  const graph::Graph g = agreement_graph(GetParam().graph);
  LaplacianSolverOptions options;
  options.method = GetParam().method;
  const LaplacianPinvSolver pinv(g, options);

  LaplacianSolverOptions reference_options;
  reference_options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver reference(g, reference_options);

  Rng rng(3);
  la::DenseMatrix y(g.num_nodes(), 4);
  for (Index j = 0; j < y.cols(); ++j) {
    for (Real& v : y.col(j)) v = rng.normal();
  }
  const la::DenseMatrix block = pinv.apply_block(y, 1);
  for (Index j = 0; j < y.cols(); ++j) {
    const la::Vector single = pinv.apply(y.col_vector(j));
    const la::Vector ref = reference.apply(y.col_vector(j));
    for (Index i = 0; i < g.num_nodes(); ++i) {
      EXPECT_NEAR(single[static_cast<std::size_t>(i)],
                  ref[static_cast<std::size_t>(i)], 1e-8)
          << GetParam().graph << " apply col " << j;
      EXPECT_NEAR(block(i, j), ref[static_cast<std::size_t>(i)], 1e-8)
          << GetParam().graph << " apply_block col " << j;
    }
  }
}

std::vector<MethodGraphCase> method_graph_cases() {
  std::vector<MethodGraphCase> cases;
  for (const LaplacianMethod m :
       {LaplacianMethod::kCholesky, LaplacianMethod::kPcgJacobi,
        LaplacianMethod::kPcgIc0, LaplacianMethod::kPcgTree,
        LaplacianMethod::kPcgAmg}) {
    for (const char* g : {"path", "mesh", "torus"}) cases.push_back({m, g});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    MethodsByGraph, MethodGraphAgreement,
    ::testing::ValuesIn(method_graph_cases()),
    [](const ::testing::TestParamInfo<MethodGraphCase>& info) {
      std::string name = std::string(laplacian_method_name(info.param.method)) +
                         "_" + info.param.graph;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(LaplacianSolver, DisconnectedGraphThrows) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(LaplacianPinvSolver{g}, ContractViolation);
}

TEST(LaplacianSolver, TooSmallGraphThrows) {
  EXPECT_THROW(LaplacianPinvSolver{graph::Graph(1)}, ContractViolation);
}

TEST(LaplacianSolver, EffectiveResistanceContracts) {
  const graph::Graph g = graph::make_path(4);
  const LaplacianPinvSolver pinv(g);
  EXPECT_THROW((void)pinv.effective_resistance(0, 0), ContractViolation);
  EXPECT_THROW((void)pinv.effective_resistance(0, 9), ContractViolation);
}

TEST(LaplacianSolver, ApplyBlockMatchesPerColumnApplyBitwise) {
  const graph::Graph g = graph::make_grid2d(7, 6).graph;
  for (const LaplacianMethod method :
       {LaplacianMethod::kCholesky, LaplacianMethod::kPcgJacobi,
        LaplacianMethod::kPcgAmg}) {
    LaplacianSolverOptions options;
    options.method = method;
    const LaplacianPinvSolver pinv(g, options);
    Rng rng(7);
    la::DenseMatrix y(g.num_nodes(), 6);
    for (Index j = 0; j < 6; ++j)
      for (Real& v : y.col(j)) v = rng.normal();
    const la::DenseMatrix x = pinv.apply_block(y, 1);
    for (Index j = 0; j < 6; ++j) {
      const la::Vector ref = pinv.apply(y.col_vector(j));
      for (Index i = 0; i < g.num_nodes(); ++i)
        EXPECT_DOUBLE_EQ(x(i, j), ref[static_cast<std::size_t>(i)])
            << "method=" << static_cast<int>(method);
    }
  }
}

TEST(LaplacianSolver, ApplyBlockMatchesApplyBitwiseAllPcgMethods) {
  // The block-PCG path must reproduce the scalar per-column PCG exactly —
  // for every preconditioner family, thread count, and block width.
  const graph::Graph g = graph::make_grid2d(9, 8).graph;
  for (const LaplacianMethod method :
       {LaplacianMethod::kPcgJacobi, LaplacianMethod::kPcgIc0,
        LaplacianMethod::kPcgTree, LaplacianMethod::kPcgAmg}) {
    LaplacianSolverOptions options;
    options.method = method;
    const LaplacianPinvSolver pinv(g, options);
    Rng rng(41);
    for (const Index b : {1, 3, 8}) {
      la::DenseMatrix y(g.num_nodes(), b);
      for (Index j = 0; j < b; ++j)
        for (Real& v : y.col(j)) v = rng.normal();
      std::vector<la::Vector> refs;
      for (Index j = 0; j < b; ++j)
        refs.push_back(pinv.apply(y.col_vector(j)));
      for (const Index threads : {1, 2, 4, 8}) {
        const la::DenseMatrix x = pinv.apply_block(y, threads);
        for (Index j = 0; j < b; ++j) {
          const la::Vector& ref = refs[static_cast<std::size_t>(j)];
          for (Index i = 0; i < g.num_nodes(); ++i)
            EXPECT_EQ(x(i, j), ref[static_cast<std::size_t>(i)])
                << laplacian_method_name(method) << " b=" << b
                << " threads=" << threads << " col=" << j;
        }
      }
    }
  }
}

TEST(LaplacianSolver, ApplyBlockStalledErrorCarriesOriginalColumnIndex) {
  // Column 0 is constant (centered to zero → trivially converged) and
  // column 1 needs real iterations: with a one-iteration budget the
  // failure must name column 1, not a packed slot index.
  const graph::Graph g = graph::make_grid2d(10, 10).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgJacobi;
  options.pcg.max_iterations = 1;
  options.pcg.rel_tolerance = 1e-14;
  const LaplacianPinvSolver pinv(g, options);
  la::DenseMatrix y(g.num_nodes(), 2);
  for (Real& v : y.col(0)) v = 3.5;
  Rng rng(42);
  for (Real& v : y.col(1)) v = rng.normal();
  try {
    (void)pinv.apply_block(y, 1);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("column 1"), std::string::npos)
        << e.what();
  }
}

TEST(LaplacianSolver, LastPcgIterationsIsMaxOverBlockColumns) {
  const graph::Graph g = graph::make_grid2d(9, 9).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgIc0;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(43);
  la::DenseMatrix y(g.num_nodes(), 3);
  for (Real& v : y.col(0)) v = rng.normal();
  for (Real& v : y.col(1)) v = 1.0;  // centered to zero → 0 iterations
  for (Real& v : y.col(2)) v = rng.normal();

  // Per-column reference counts via scalar apply().
  Index max_it = 0;
  Index total_it = 0;
  for (Index j = 0; j < 3; ++j) {
    (void)pinv.apply(y.col_vector(j));
    max_it = std::max(max_it, pinv.last_pcg_iterations());
    total_it += pinv.last_pcg_iterations();
  }

  (void)pinv.apply_block(y, 1);
  EXPECT_EQ(pinv.last_pcg_iterations(), max_it);
  const PcgBlockStats stats = pinv.pcg_block_stats();
  EXPECT_EQ(stats.columns, 3);
  EXPECT_EQ(stats.max_iterations, max_it);
  EXPECT_EQ(stats.total_iterations, total_it);
  EXPECT_EQ(stats.converged_columns, 3);
  EXPECT_GT(stats.max_iterations, 0);
  EXPECT_LT(stats.max_iterations, stats.total_iterations);
}

TEST(LaplacianSolver, PcgIterationCountersResetOnCholeskyPath) {
  const graph::Graph g = graph::make_grid2d(7, 7).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(44);
  la::DenseMatrix y(g.num_nodes(), 2);
  for (Index j = 0; j < 2; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  (void)pinv.apply_block(y, 1);
  EXPECT_EQ(pinv.last_pcg_iterations(), 0);
  const PcgBlockStats stats = pinv.pcg_block_stats();
  EXPECT_EQ(stats.columns, 0);
  EXPECT_EQ(stats.max_iterations, 0);
  EXPECT_EQ(stats.total_iterations, 0);
  EXPECT_EQ(stats.converged_columns, 0);
}

TEST(LaplacianSolver, ApplyBlockBitIdenticalAcrossThreadCounts) {
  const graph::Graph g = graph::make_grid2d(8, 8).graph;
  const LaplacianPinvSolver pinv(g);
  Rng rng(8);
  la::DenseMatrix y(g.num_nodes(), 8);
  for (Index j = 0; j < 8; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  const la::DenseMatrix serial = pinv.apply_block(y, 1);
  for (const Index threads : {2, 4, 8}) {
    const la::DenseMatrix threaded = pinv.apply_block(y, threads);
    EXPECT_EQ(serial.data(), threaded.data()) << "threads=" << threads;
  }
}

TEST(LaplacianSolver, ApplyBlockShapeContracts) {
  const graph::Graph g = graph::make_path(6);
  const LaplacianPinvSolver pinv(g);
  la::DenseMatrix y(5, 2);  // wrong row count
  la::DenseMatrix x(6, 2);
  EXPECT_THROW(pinv.apply_block(la::view_of(y), la::view_of(x), 1),
               ContractViolation);
}

TEST(LaplacianSolver, ApplyBlockPropagatesPcgFailurePerRhs) {
  // One PCG iteration cannot solve a 10×10 grid system: the per-RHS
  // convergence check must surface NumericalError from the block path.
  const graph::Graph g = graph::make_grid2d(10, 10).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgJacobi;
  options.pcg.max_iterations = 1;
  options.pcg.rel_tolerance = 1e-14;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(9);
  la::DenseMatrix y(g.num_nodes(), 4);
  for (Index j = 0; j < 4; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  EXPECT_THROW((void)pinv.apply_block(y, 2), NumericalError);
}

TEST(LaplacianSolver, ApplyBlockMatchesPerColumnWithin1e12Relative) {
  // Acceptance bound of the block refactor: the block sweep result stays
  // within 1e-12 relative error of the retained per-column reference path
  // (in fact it is bitwise equal; this guards the documented contract).
  const graph::Graph g = graph::make_grid2d(12, 11).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(21);
  la::DenseMatrix y(g.num_nodes(), 16);
  for (Index j = 0; j < y.cols(); ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  const la::DenseMatrix x = pinv.apply_block(y, 1);
  for (Index j = 0; j < y.cols(); ++j) {
    const la::Vector ref = pinv.apply(y.col_vector(j));
    Real ref_norm = 0.0;
    for (const Real v : ref) ref_norm += v * v;
    ref_norm = std::sqrt(ref_norm);
    for (Index i = 0; i < g.num_nodes(); ++i) {
      EXPECT_LE(std::abs(x(i, j) - ref[static_cast<std::size_t>(i)]),
                1e-12 * ref_norm)
          << "col " << j;
    }
  }
}

TEST(LaplacianSolver, FactorStatsExposedForCholesky) {
  const graph::Graph g = graph::make_grid2d(8, 8).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver pinv(g, options);
  const FactorStats* stats = pinv.factor_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->n, g.num_nodes() - 1);
  EXPECT_GT(stats->factor_nnz, 0);
  EXPECT_GT(stats->num_supernodes, 0);
  EXPECT_GT(stats->num_levels, 0);
  EXPECT_GE(stats->factor_seconds, 0.0);
}

TEST(LaplacianSolver, DefaultMethodIsCholesky) {
  // The default is direct on every graph, small or large: a 182² torus
  // (n > 30000, average degree 4) once went to PCG-AMG, about 20× slower
  // than Cholesky + nested dissection at that size (BENCH_policies.json).
  for (const Index side : {5, 182}) {
    const graph::Graph g = graph::make_grid2d(side, side, /*periodic=*/true).graph;
    const LaplacianPinvSolver pinv(g);
    EXPECT_EQ(pinv.method(), LaplacianMethod::kCholesky) << side;
    EXPECT_NE(pinv.factor_stats(), nullptr) << side;
  }
}

TEST(LaplacianSolver, FactorStatsNullForPcgMethods) {
  const graph::Graph g = graph::make_grid2d(6, 6).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgJacobi;
  const LaplacianPinvSolver pinv(g, options);
  EXPECT_EQ(pinv.factor_stats(), nullptr);
}

TEST(LaplacianSolver, MethodNamesRoundTrip) {
  for (const LaplacianMethod m :
       {LaplacianMethod::kCholesky, LaplacianMethod::kPcgJacobi,
        LaplacianMethod::kPcgIc0, LaplacianMethod::kPcgTree,
        LaplacianMethod::kPcgAmg}) {
    const auto parsed = parse_laplacian_method(laplacian_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_laplacian_method("lu").has_value());
  EXPECT_FALSE(parse_laplacian_method("").has_value());
  EXPECT_FALSE(parse_laplacian_method("Cholesky").has_value());
}

TEST(LaplacianSolver, ApplyBlockDefaultPcgOptionsMatchesPlainOverloadBitwise) {
  // The warm-start overload with default (null-view) options must be THE
  // same solve as the two-argument apply_block, float for float.
  const graph::Graph g = graph::make_grid2d(8, 7).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgJacobi;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(19);
  la::DenseMatrix y(g.num_nodes(), 4);
  for (Index j = 0; j < 4; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  const la::DenseMatrix x_plain = pinv.apply_block(y, 1);
  la::DenseMatrix x_explicit(g.num_nodes(), 4);
  pinv.apply_block(la::view_of(y), la::view_of(x_explicit), PcgOptions{}, 1);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < g.num_nodes(); ++i)
      EXPECT_EQ(x_plain(i, j), x_explicit(i, j));
}

TEST(LaplacianSolver, ApplyBlockWarmStartConvergesFasterToSameSolution) {
  const graph::Graph g = graph::make_grid2d(12, 11).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgJacobi;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(23);
  la::DenseMatrix y(g.num_nodes(), 3);
  for (Index j = 0; j < 3; ++j) {
    la::Vector col(static_cast<std::size_t>(g.num_nodes()));
    for (Real& v : col) v = rng.normal();
    la::center(col);
    for (Index i = 0; i < g.num_nodes(); ++i) y(i, j) = col[static_cast<std::size_t>(i)];
  }

  // Cold solve, capturing the grounded iterate through final_iterate.
  la::DenseMatrix x_cold(g.num_nodes(), 3);
  la::DenseMatrix iterate(g.num_nodes() - 1, 3);
  PcgOptions cold;
  cold.final_iterate = la::view_of(iterate);
  pinv.apply_block(la::view_of(y), la::view_of(x_cold), cold, 1);
  const Index cold_iterations = pinv.last_pcg_iterations();
  EXPECT_GT(cold_iterations, 1);

  // Warm solve of the SAME system seeded with the converged iterate: it
  // must finish in a round or two and reproduce the cold solution.
  la::DenseMatrix x_warm(g.num_nodes(), 3);
  PcgOptions warm;
  warm.initial_guess = la::view_of(std::as_const(iterate));
  pinv.apply_block(la::view_of(y), la::view_of(x_warm), warm, 1);
  EXPECT_LE(pinv.last_pcg_iterations(), 2);
  for (Index j = 0; j < 3; ++j)
    for (Index i = 0; i < g.num_nodes(); ++i)
      EXPECT_NEAR(x_warm(i, j), x_cold(i, j), 1e-8);
}

TEST(LaplacianSolver, CholeskyPathIgnoresWarmStartViews) {
  // A direct solve has no iterate: guess and copy-out slots are inert and
  // the result equals the plain overload bitwise.
  const graph::Graph g = graph::make_grid2d(6, 6).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kCholesky;
  const LaplacianPinvSolver pinv(g, options);
  Rng rng(29);
  la::DenseMatrix y(g.num_nodes(), 2);
  for (Index j = 0; j < 2; ++j)
    for (Real& v : y.col(j)) v = rng.normal();
  const la::DenseMatrix x_plain = pinv.apply_block(y, 1);

  la::DenseMatrix guess(g.num_nodes() - 1, 2);
  for (Index j = 0; j < 2; ++j)
    for (Real& v : guess.col(j)) v = 123.0;  // garbage must not leak in
  la::DenseMatrix sink(g.num_nodes() - 1, 2);
  PcgOptions pcg;
  pcg.initial_guess = la::view_of(std::as_const(guess));
  pcg.final_iterate = la::view_of(sink);
  la::DenseMatrix x_warm(g.num_nodes(), 2);
  pinv.apply_block(la::view_of(y), la::view_of(x_warm), pcg, 1);
  for (Index j = 0; j < 2; ++j)
    for (Index i = 0; i < g.num_nodes(); ++i)
      EXPECT_EQ(x_plain(i, j), x_warm(i, j));
}

TEST(LaplacianSolver, PcgIterationCountExposed) {
  const graph::Graph g = graph::make_grid2d(10, 10).graph;
  LaplacianSolverOptions options;
  options.method = LaplacianMethod::kPcgAmg;
  const LaplacianPinvSolver pinv(g, options);
  la::Vector y(static_cast<std::size_t>(g.num_nodes()), 0.0);
  y[0] = 1.0;
  y[99] = -1.0;
  (void)pinv.apply(y);
  EXPECT_GT(pinv.last_pcg_iterations(), 0);
}

}  // namespace
}  // namespace sgl::solver
