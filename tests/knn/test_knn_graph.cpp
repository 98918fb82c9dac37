// Unit tests for kNN graph construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/rng.hpp"
#include "core/sgl.hpp"
#include "graph/components.hpp"
#include "knn/knn_graph.hpp"

namespace sgl::knn {
namespace {

la::DenseMatrix random_points(Index n, Index dim, std::uint64_t seed) {
  Rng rng(seed);
  la::DenseMatrix x(n, dim);
  for (Index j = 0; j < dim; ++j)
    for (Index i = 0; i < n; ++i) x(i, j) = rng.normal();
  return x;
}

TEST(KnnGraph, WeightsArePaperFormula) {
  // Colinear points 0, 1, 3 (distances² 1, 4, 9); with k = 1 the graph has
  // edges (0,1) and (1,3)… after symmetrization.
  la::DenseMatrix x(3, 2);
  x(0, 0) = 0.0; x(1, 0) = 1.0; x(2, 0) = 3.0;
  KnnGraphOptions options;
  options.k = 1;
  const graph::Graph g = build_knn_graph(x, options);
  const Real m = 2.0;  // number of measurement columns
  for (const graph::Edge& e : g.edges()) {
    const Real dist2 = x.row_distance_squared(e.s, e.t);
    EXPECT_NEAR(e.weight, m / dist2, 1e-12);
  }
}

TEST(KnnGraph, SymmetrizedUnionHasNoDuplicates) {
  const la::DenseMatrix x = random_points(60, 5, 2);
  KnnGraphOptions options;
  options.k = 4;
  const graph::Graph g = build_knn_graph(x, options);
  std::set<std::pair<Index, Index>> seen;
  for (const graph::Edge& e : g.edges()) {
    EXPECT_TRUE(seen.emplace(e.s, e.t).second) << "duplicate edge";
  }
}

TEST(KnnGraph, EdgeCountBounds) {
  // Union symmetrization: between N·k/2 (fully mutual) and N·k edges.
  const la::DenseMatrix x = random_points(100, 6, 3);
  KnnGraphOptions options;
  options.k = 5;
  options.ensure_connected = false;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_GE(g.num_edges(), 100 * 5 / 2);
  EXPECT_LE(g.num_edges(), 100 * 5);
}

TEST(KnnGraph, EnsuresConnectivityAcrossBlobs) {
  // Two far-apart blobs with k small enough that the raw kNN graph is
  // disconnected; the builder must bridge them.
  Rng rng(5);
  la::DenseMatrix x(40, 2);
  for (Index i = 0; i < 20; ++i) {
    x(i, 0) = rng.normal() * 0.01;
    x(i, 1) = rng.normal() * 0.01;
  }
  for (Index i = 20; i < 40; ++i) {
    x(i, 0) = 100.0 + rng.normal() * 0.01;
    x(i, 1) = 100.0 + rng.normal() * 0.01;
  }
  KnnGraphOptions options;
  options.k = 3;
  options.ensure_connected = true;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_TRUE(graph::is_connected(g));

  options.ensure_connected = false;
  const graph::Graph g2 = build_knn_graph(x, options);
  EXPECT_FALSE(graph::is_connected(g2));
}

TEST(KnnGraph, DuplicatePointsGetFiniteWeights) {
  la::DenseMatrix x(4, 2);
  // Rows 0 and 1 identical; rows 2, 3 distinct.
  x(2, 0) = 1.0;
  x(3, 0) = 2.0;
  KnnGraphOptions options;
  options.k = 2;
  const graph::Graph g = build_knn_graph(x, options);
  for (const graph::Edge& e : g.edges()) {
    EXPECT_TRUE(std::isfinite(e.weight));
    EXPECT_GT(e.weight, 0.0);
  }
}

/// Forty 6-dim points in two clusters of identical rows: every point's
/// nearest neighbors are exact duplicates of it.
la::DenseMatrix two_duplicate_clusters() {
  la::DenseMatrix x(40, 6);
  for (Index i = 0; i < 40; ++i)
    for (Index j = 0; j < 6; ++j)
      x(i, j) = (i < 20 ? 0.25 : -0.5) * static_cast<Real>(j + 1);
  return x;
}

TEST(KnnGraph, NoPositiveNeighborDistanceIsRejected) {
  // The median neighbor distance of this input is 0; the floor used to
  // collapse to 1e-300 and give weights near 1e302.
  try {
    (void)build_knn_graph(two_duplicate_clusters());
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("no positive neighbor distance"),
              std::string::npos) << e.what();
  }
}

TEST(KnnGraph, LearnOnDuplicateClustersIsFiniteOrTypedError) {
  // End to end on the same input (what sgl_learn runs on a voltages file):
  // a learned graph must have finite weights within a bounded spread, or
  // the learner must refuse the data with a typed error.
  try {
    const core::SglResult result = core::learn_graph(two_duplicate_clusters());
    Real lo = std::numeric_limits<Real>::infinity();
    Real hi = 0.0;
    for (const graph::Edge& e : result.learned.edges()) {
      ASSERT_TRUE(std::isfinite(e.weight));
      lo = std::min(lo, e.weight);
      hi = std::max(hi, e.weight);
    }
    EXPECT_LE(hi / lo, 1e8);
  } catch (const SglError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

TEST(KnnGraph, DuplicateFloorIgnoresZeroDistances) {
  // Most rows duplicate row 0, so most neighbor distances are 0. The floor
  // comes from the median of the positive ones, so the duplicate edges get
  // weight M / (floor_rel · median) instead of M / 1e-300.
  la::DenseMatrix x = random_points(12, 3, 5);
  for (Index i = 1; i < 8; ++i)
    for (Index j = 0; j < 3; ++j) x(i, j) = x(0, j);
  KnnGraphOptions options;
  options.k = 3;
  options.backend = KnnBackend::kBruteForce;
  const graph::Graph g = build_knn_graph(x, options);
  Real hi = 0.0;
  for (const graph::Edge& e : g.edges()) {
    ASSERT_TRUE(std::isfinite(e.weight));
    hi = std::max(hi, e.weight);
  }
  EXPECT_LT(hi, 3.0 / options.distance_floor_rel * 1e3);
  EXPECT_GT(hi, 3.0 / options.distance_floor_rel * 1e-3);
}

TEST(KnnGraph, WeightsScaleWithData) {
  // Regression for the scale-dependent duplicate-point floor: rescaling
  // the measurements by c must rescale every weight by exactly 1/c² (the
  // floor used to go absolute for median ≪ 1, clamping every distance and
  // flattening all weights).
  const la::DenseMatrix x = random_points(80, 4, 11);
  la::DenseMatrix x_small(80, 4);
  const Real c = 1e-6;
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 80; ++i) x_small(i, j) = c * x(i, j);

  KnnGraphOptions options;
  options.k = 4;
  const graph::Graph g = build_knn_graph(x, options);
  const graph::Graph g_small = build_knn_graph(x_small, options);

  ASSERT_EQ(g.num_edges(), g_small.num_edges());
  std::map<std::pair<Index, Index>, Real> weights;
  for (const graph::Edge& e : g.edges()) weights[{e.s, e.t}] = e.weight;
  bool weights_vary = false;
  Real first_weight = -1.0;
  for (const graph::Edge& e : g_small.edges()) {
    const auto it = weights.find({e.s, e.t});
    ASSERT_NE(it, weights.end()) << "edge set changed under rescaling";
    // w_small = M / (c²·d²) = w / c².
    EXPECT_NEAR(e.weight * c * c, it->second, 1e-9 * it->second);
    if (first_weight < 0.0) first_weight = e.weight;
    if (std::abs(e.weight - first_weight) > 1e-6 * first_weight)
      weights_vary = true;
  }
  // The old bug flattened all small-scale weights to M/floor; distinct
  // distances must keep distinct weights.
  EXPECT_TRUE(weights_vary);
}

TEST(KnnGraph, ConnectsThreeComponentsWithFlooredBridges) {
  // Three well-separated blobs, k small enough that kNN stays inside each
  // blob: the repair loop must add bridges until one component remains,
  // and each bridge weight must be M/max(d², floor) for the closest
  // cross-component pair.
  Rng rng(17);
  const Index per_blob = 8;
  la::DenseMatrix x(3 * per_blob, 2);
  for (Index b = 0; b < 3; ++b)
    for (Index i = 0; i < per_blob; ++i) {
      x(b * per_blob + i, 0) = 1000.0 * b + rng.normal() * 0.01;
      x(b * per_blob + i, 1) = rng.normal() * 0.01;
    }

  KnnGraphOptions options;
  options.k = 2;
  options.ensure_connected = false;
  const graph::Graph raw = build_knn_graph(x, options);
  ASSERT_GE(graph::connected_components(raw).count, 3);

  options.ensure_connected = true;
  const graph::Graph g = build_knn_graph(x, options);
  EXPECT_TRUE(graph::is_connected(g));
  // Exactly one bridge per extra component.
  EXPECT_EQ(g.num_edges(),
            raw.num_edges() + graph::connected_components(raw).count - 1);

  // Bridges span blobs; their weight is the un-floored paper formula here
  // (cross-blob distances are far above the duplicate floor).
  const Real m = 2.0;
  Index bridges = 0;
  for (const graph::Edge& e : g.edges()) {
    if (e.s / per_blob == e.t / per_blob) continue;
    ++bridges;
    const Real d2 = x.row_distance_squared(e.s, e.t);
    EXPECT_NEAR(e.weight, m / d2, 1e-9 * (m / d2));
  }
  EXPECT_EQ(bridges, graph::connected_components(raw).count - 1);

  // The learner must initialize on such data: spanning tree over all
  // 3·per_blob nodes.
  core::SglConfig config;
  config.k = 2;
  core::SglLearner learner(x, config);
  EXPECT_TRUE(graph::is_connected(learner.current_graph()));
  EXPECT_EQ(learner.current_graph().num_edges(), 3 * per_blob - 1);
}

TEST(KnnGraph, ThreadedBuildMatchesSerialBitForBit) {
  const la::DenseMatrix x = random_points(120, 5, 29);
  KnnGraphOptions serial_opts;
  serial_opts.k = 4;
  serial_opts.num_threads = 1;
  const graph::Graph serial = build_knn_graph(x, serial_opts);
  for (const Index threads : {2, 4}) {
    KnnGraphOptions opts = serial_opts;
    opts.num_threads = threads;
    const graph::Graph parallel = build_knn_graph(x, opts);
    ASSERT_EQ(parallel.num_edges(), serial.num_edges());
    for (Index e = 0; e < serial.num_edges(); ++e) {
      EXPECT_EQ(parallel.edge(e).s, serial.edge(e).s);
      EXPECT_EQ(parallel.edge(e).t, serial.edge(e).t);
      EXPECT_EQ(parallel.edge(e).weight, serial.edge(e).weight);
    }
  }
}

TEST(KnnGraph, BackendsAgreeOnExactRegime) {
  // With generous ef_search, HNSW matches brute force on small data; the
  // resulting graphs should be nearly identical.
  const la::DenseMatrix x = random_points(150, 4, 7);
  KnnGraphOptions brute;
  brute.k = 4;
  brute.backend = KnnBackend::kBruteForce;
  KnnGraphOptions hnsw;
  hnsw.k = 4;
  hnsw.backend = KnnBackend::kHnsw;
  hnsw.hnsw.ef_search = 150;
  const graph::Graph g1 = build_knn_graph(x, brute);
  const graph::Graph g2 = build_knn_graph(x, hnsw);
  const Real overlap =
      std::min(g1.num_edges(), g2.num_edges()) /
      static_cast<Real>(std::max(g1.num_edges(), g2.num_edges()));
  EXPECT_GE(overlap, 0.95);
}

TEST(KnnGraph, Contracts) {
  const la::DenseMatrix x = random_points(10, 2, 1);
  KnnGraphOptions options;
  options.k = 10;
  EXPECT_THROW(build_knn_graph(x, options), ContractViolation);
  options.k = 0;
  EXPECT_THROW(build_knn_graph(x, options), ContractViolation);
}

}  // namespace
}  // namespace sgl::knn
