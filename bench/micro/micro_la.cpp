// Block linear-algebra microbenchmarks: CSR SpMM versus b sequential
// SpMVs (the blocked apply must win at b ≥ 8 by streaming A's nonzeros
// once), plus the block Lanczos eigensolver at 1/2/4/8 threads.
#include <benchmark/benchmark.h>

#include "sgl.hpp"

namespace {

using namespace sgl;

la::CsrMatrix mesh_laplacian(Index side) {
  return graph::make_grid2d(side, side).graph.laplacian();
}

la::MultiVector random_block(Index rows, Index cols, std::uint64_t seed) {
  Rng rng(seed);
  la::MultiVector x(rows, cols);
  for (Index j = 0; j < cols; ++j)
    for (Real& v : x.col(j)) v = rng.normal();
  return x;
}

/// Y = A X in one SpMM pass; args: block width b, threads.
void BM_SpMM(benchmark::State& state) {
  const la::CsrMatrix a = mesh_laplacian(192);
  const Index b = static_cast<Index>(state.range(0));
  const Index threads = static_cast<Index>(state.range(1));
  const la::MultiVector x = random_block(a.cols(), b, 11);
  la::MultiVector y(a.rows(), b);
  for (auto _ : state) {
    la::spmm(a, x.view(), y.view(), threads);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["nnz"] = static_cast<double>(a.nnz());
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          a.nnz() * b);
}
BENCHMARK(BM_SpMM)
    ->ArgsProduct({{4, 8, 16}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The unbatched baseline: b sequential SpMVs over the same operand.
void BM_SpMVSequentialColumns(benchmark::State& state) {
  const la::CsrMatrix a = mesh_laplacian(192);
  const Index b = static_cast<Index>(state.range(0));
  const la::MultiVector x = random_block(a.cols(), b, 11);
  la::Vector xj(static_cast<std::size_t>(a.cols()));
  la::Vector yj(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    for (Index j = 0; j < b; ++j) {
      const auto col = x.col(j);
      std::copy(col.begin(), col.end(), xj.begin());
      a.multiply(xj, yj, 1);
      benchmark::DoNotOptimize(yj.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          a.nnz() * b);
}
BENCHMARK(BM_SpMVSequentialColumns)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// Parallel single-vector SpMV (the PCG inner kernel).
void BM_SpMVThreaded(benchmark::State& state) {
  const la::CsrMatrix a = mesh_laplacian(256);
  const Index threads = static_cast<Index>(state.range(0));
  const la::MultiVector x = random_block(a.cols(), 1, 13);
  la::Vector xv(x.col(0).begin(), x.col(0).end());
  la::Vector y(static_cast<std::size_t>(a.rows()));
  for (auto _ : state) {
    a.multiply(xv, y, threads);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SpMVThreaded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// One empty pool region: the round trip every parallel loop pays before
/// any of its work runs (wake the workers, run no-op slots, join them).
/// parallel::kMinParallelWork is derived from this (DESIGN.md §4);
/// args: threads.
void BM_ParallelRegion(benchmark::State& state) {
  const Index threads = static_cast<Index>(state.range(0));
  for (auto _ : state) {
    parallel::parallel_for_slots(
        0, threads, threads, [](Index lo, Index /*hi*/, Index slot) {
          benchmark::DoNotOptimize(lo + slot);
        });
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ParallelRegion)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

/// Block Lanczos on an SGL-shaped ultra-sparse graph; args: threads.
void BM_BlockLanczos(benchmark::State& state) {
  const graph::Graph mesh = graph::make_grid2d(96, 96).graph;
  const auto tree_ids = graph::maximum_spanning_forest(mesh);
  graph::Graph g = graph::subgraph_from_edges(mesh, tree_ids);
  Rng rng(7);
  for (Index i = 0; i < mesh.num_nodes() / 100 + 1; ++i) {
    const Index s = rng.uniform_int(mesh.num_nodes());
    const Index t = rng.uniform_int(mesh.num_nodes());
    if (s != t) g.add_edge(std::min(s, t), std::max(s, t), 1.0);
  }
  const solver::LaplacianPinvSolver pinv(g);
  eig::LanczosOptions options;
  options.num_threads = static_cast<Index>(state.range(0));
  Index steps = 0;
  for (auto _ : state) {
    const eig::EigenPairs pairs =
        eig::smallest_laplacian_eigenpairs(pinv, 5, options);
    steps = pairs.lanczos_steps;
    benchmark::DoNotOptimize(pairs.eigenvalues.data());
  }
  state.counters["basis"] = static_cast<double>(steps);
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BlockLanczos)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Grounded Laplacian of the 192² mesh — the SPD system behind the
/// factorization benchmarks.
///
/// Shared-fixture thread-safety contract (here and in mesh_factor):
/// magic-static initialization is thread-safe, and the returned objects
/// are const/immutable afterwards, so benchmark repetitions may share
/// them freely without locks. Mutable shared state in bench helpers
/// would need the annotated common/mutex.hpp wrappers (DESIGN.md §7).
const la::CsrMatrix& grounded_mesh_laplacian() {
  static const la::CsrMatrix a =
      solver::grounded_laplacian(graph::make_grid2d(192, 192).graph);
  return a;
}

const solver::CholeskySolver& mesh_factor() {
  static const solver::CholeskySolver chol(grounded_mesh_laplacian());
  return chol;
}

/// Block triangular sweeps: one forward/backward pass over the factor per
/// b right-hand sides; args: block width b, threads.
void BM_SolveBlock(benchmark::State& state) {
  const solver::CholeskySolver& chol = mesh_factor();
  const Index b = static_cast<Index>(state.range(0));
  const Index threads = static_cast<Index>(state.range(1));
  const la::MultiVector rhs = random_block(chol.size(), b, 19);
  la::MultiVector x(chol.size(), b);
  for (auto _ : state) {
    x.data() = rhs.data();
    chol.solve_in_place_block(x.view(), threads);
    benchmark::DoNotOptimize(x.data().data());
  }
  state.counters["factor_nnz"] = static_cast<double>(chol.stats().factor_nnz);
  state.counters["threads"] = static_cast<double>(threads);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chol.stats().factor_nnz * b);
}
BENCHMARK(BM_SolveBlock)
    ->ArgsProduct({{1, 4, 16}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The unbatched baseline the block sweep must beat: b scalar solves
/// streaming the factor once per column.
void BM_SolvePerColumn(benchmark::State& state) {
  const solver::CholeskySolver& chol = mesh_factor();
  const Index b = static_cast<Index>(state.range(0));
  const la::MultiVector rhs = random_block(chol.size(), b, 19);
  la::Vector xj(static_cast<std::size_t>(chol.size()));
  for (auto _ : state) {
    for (Index j = 0; j < b; ++j) {
      const auto col = rhs.col(j);
      std::copy(col.begin(), col.end(), xj.begin());
      chol.solve_in_place(xj);
      benchmark::DoNotOptimize(xj.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          chol.stats().factor_nnz * b);
}
BENCHMARK(BM_SolvePerColumn)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// Level-scheduled numeric factorization of the grounded mesh; args:
/// threads (the symbolic phase and ordering are included).
void BM_FactorLevelScheduled(benchmark::State& state) {
  const la::CsrMatrix& a = grounded_mesh_laplacian();
  const Index threads = static_cast<Index>(state.range(0));
  Index levels = 0;
  for (auto _ : state) {
    const solver::CholeskySolver chol(a, solver::OrderingMethod::kAuto,
                                      threads);
    levels = chol.stats().num_levels;
    benchmark::DoNotOptimize(levels);
  }
  state.counters["levels"] = static_cast<double>(levels);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_FactorLevelScheduled)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Multi-RHS pseudo-inverse solve (measurement generation hot path).
void BM_ApplyBlockMultiRhs(benchmark::State& state) {
  const graph::Graph g = graph::make_grid2d(64, 64).graph;
  const solver::LaplacianPinvSolver pinv(g);
  const Index threads = static_cast<Index>(state.range(0));
  const la::MultiVector y = random_block(g.num_nodes(), 16, 17);
  la::MultiVector x(g.num_nodes(), 16);
  for (auto _ : state) {
    pinv.apply_block(y.view(), x.view(), threads);
    benchmark::DoNotOptimize(x.data().data());
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ApplyBlockMultiRhs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
