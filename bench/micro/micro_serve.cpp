// Serving-layer microbenchmarks (DESIGN.md §10): the batching win. One
// coalesced apply_block answering b resistance queries vs b sequential
// single-RHS solves through the same engine. Identical bits either way —
// the delta is pure batching (one matrix traversal per sweep amortized
// across all columns). The acceptance bar is ≥1.5× at b=16, 1 thread, on
// the 192² mesh.
#include <benchmark/benchmark.h>

#include <utility>
#include <vector>

#include "sgl.hpp"

namespace {

using namespace sgl;

serve::ServeOptions bench_options(Index batch_width) {
  serve::ServeOptions options;
  options.batch_width = batch_width;
  options.num_threads = 1;
  // The default direct method: the serving engine's whole point is the
  // warm cached factorization, whose block triangular sweeps traverse the
  // factor once for all b columns, which is where coalescing pays.
  return options;
}

std::vector<std::pair<Index, Index>> probe_pairs(Index n, Index count) {
  // Spread source/sink pairs across the mesh so every column is a
  // distinct right-hand side.
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < count; ++i) {
    pairs.emplace_back(i * (n / (2 * count) + 1), n - 1 - i * 3);
  }
  return pairs;
}

/// b resistance queries answered by ONE apply_block of width b.
void BM_ServeBatchedResistance(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  serve::ServeEngine engine(bench_options(b));
  (void)engine.load_graph(graph::make_grid2d(192, 192).graph);
  const auto pairs = probe_pairs(engine.active_num_nodes(), b);
  for (auto _ : state) {
    const std::vector<Real> values = engine.effective_resistance_batch(pairs);
    benchmark::DoNotOptimize(values.data());
  }
  const serve::ServeStats stats = engine.stats();
  // The receipt: one apply_block per iteration, width b.
  state.counters["batches_per_iter"] =
      static_cast<double>(stats.batches) /
      static_cast<double>(state.iterations());
  state.counters["max_batch_width"] =
      static_cast<double>(stats.max_batch_width);
}
BENCHMARK(BM_ServeBatchedResistance)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The unbatched baseline: the same b queries as b sequential
/// single-column solves through a width-1 engine.
void BM_ServePerQuery(benchmark::State& state) {
  const Index b = static_cast<Index>(state.range(0));
  serve::ServeEngine engine(bench_options(1));
  (void)engine.load_graph(graph::make_grid2d(192, 192).graph);
  const auto pairs = probe_pairs(engine.active_num_nodes(), b);
  for (auto _ : state) {
    for (const auto& [s, t] : pairs) {
      const Real value = engine.effective_resistance(s, t);
      benchmark::DoNotOptimize(value);
    }
  }
  const serve::ServeStats stats = engine.stats();
  state.counters["batches_per_iter"] =
      static_cast<double>(stats.batches) /
      static_cast<double>(state.iterations());
  state.counters["max_batch_width"] =
      static_cast<double>(stats.max_batch_width);
}
BENCHMARK(BM_ServePerQuery)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
