#include "knn/knn_graph.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "common/parallel.hpp"
#include "graph/components.hpp"

namespace sgl::knn {

namespace {

/// Closest cross-component pair found by one scan chunk.
struct CrossPair {
  Real distance = std::numeric_limits<Real>::infinity();
  Index s = kInvalidIndex;
  Index t = kInvalidIndex;
};

/// Adds the minimum-distance edge between every smaller component and the
/// rest until one component remains. Each pass scans all cross pairs from
/// the smallest component, so the repair is O(components · N² · M) in the
/// worst case — components are rare for mesh-like measurement manifolds,
/// so the exact scan is fine; its rows are searched in parallel with a
/// deterministic chunk-ordered reduction (strict < keeps the earliest
/// minimum, exactly like the serial scan).
void connect_components(graph::Graph& g, const std::vector<Real>& data,
                        Index dim, Real weight_numerator, Real floor2,
                        Index num_threads) {
  for (;;) {
    const graph::Components comp = graph::connected_components(g);
    if (comp.count <= 1) return;

    // Pick the smallest component and link it to its nearest outside node.
    std::vector<Index> size(static_cast<std::size_t>(comp.count), 0);
    for (const Index c : comp.label) ++size[static_cast<std::size_t>(c)];
    const Index smallest = to_index(static_cast<std::size_t>(
        std::min_element(size.begin(), size.end()) - size.begin()));

    const CrossPair best = parallel::parallel_reduce(
        0, g.num_nodes(), num_threads, CrossPair{},
        [&](Index lo, Index hi) {
          CrossPair local;
          for (Index s = lo; s < hi; ++s) {
            if (comp.label[static_cast<std::size_t>(s)] != smallest) continue;
            for (Index t = 0; t < g.num_nodes(); ++t) {
              if (comp.label[static_cast<std::size_t>(t)] == smallest) continue;
              const Real d = point_distance_squared(data, dim, s, t);
              if (d < local.distance) local = {d, s, t};
            }
          }
          return local;
        },
        [](const CrossPair& a, const CrossPair& b) {
          return b.distance < a.distance ? b : a;
        });
    SGL_ASSERT(best.s != kInvalidIndex, "connect_components: no cross pair");
    g.add_edge(best.s, best.t,
               weight_numerator / std::max(best.distance, floor2));
  }
}

}  // namespace

graph::Graph build_knn_graph(const la::DenseMatrix& x,
                             const KnnGraphOptions& options) {
  const Index n = x.rows();
  const Index m = x.cols();
  SGL_EXPECTS(n >= 2, "build_knn_graph: need at least two points");
  SGL_EXPECTS(options.k >= 1 && options.k < n,
              "build_knn_graph: need 1 <= k < N");

  KnnBackend backend = options.backend;
  if (backend == KnnBackend::kAuto) {
    backend = (n <= 4096) ? KnnBackend::kBruteForce : KnnBackend::kHnsw;
  }
  const KnnResult knn =
      (backend == KnnBackend::kBruteForce)
          ? brute_force_knn(x, options.k, options.num_threads)
          : hnsw_knn(x, options.k, options.hnsw, options.num_threads);

  // The median of the POSITIVE neighbor distances defines the
  // duplicate-point floor. The floor is purely relative to that median, so
  // rescaling the data rescales every weight uniformly; zero distances
  // (duplicate rows) are left out of the median, or a data set where most
  // points have duplicates would get a zero scale and weights near 1e300.
  // When no neighbor distance is positive (every point has at least k
  // exact duplicates) the input is rejected: the only positive distances
  // left would be the connectivity repair's bridges, so the floor alone
  // would weight every kNN edge, 1/floor_rel above the bridges.
  std::vector<Real> dists;
  dists.reserve(knn.distance_squared.size());
  for (const Real d : knn.distance_squared)
    if (d > 0.0) dists.push_back(d);
  SGL_EXPECTS(!dists.empty(),
              "build_knn_graph: no positive neighbor distance — every "
              "point's k nearest neighbors are exact duplicates of it; "
              "remove duplicate rows or raise k");
  const auto mid = dists.begin() + static_cast<std::ptrdiff_t>(dists.size() / 2);
  std::nth_element(dists.begin(), mid, dists.end());
  const Real floor2 = options.distance_floor_rel * *mid;

  // Symmetrize by union; keep the smaller distance if both directions hit.
  const Real weight_numerator = static_cast<Real>(m);
  std::map<std::pair<Index, Index>, Real> pair_dist;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < knn.k; ++j) {
      const Index nb = knn.neighbor[static_cast<std::size_t>(i) * knn.k + j];
      if (nb == i || nb == kInvalidIndex) continue;
      const Real d =
          knn.distance_squared[static_cast<std::size_t>(i) * knn.k + j];
      const auto key = std::minmax(i, nb);
      auto [it, inserted] = pair_dist.try_emplace({key.first, key.second}, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
  }

  graph::Graph g(n);
  for (const auto& [key, d] : pair_dist) {
    g.add_edge(key.first, key.second, weight_numerator / std::max(d, floor2));
  }

  if (options.ensure_connected) {
    const std::vector<Real> data = to_row_major(x);
    connect_components(g, data, m, weight_numerator, floor2,
                       options.num_threads);
  }
  return g;
}

}  // namespace sgl::knn
