// kNN graph construction from measurement data (SGL Step 1 substrate).
//
// Nodes are rows of the voltage measurement matrix X ∈ R^{N×M}; the graph
// connects each node to its k nearest rows with the paper's similarity
// weight w_st = M / ‖X(s,:) − X(t,:)‖² (eq. 15), so that low data distance
// means high conductance. Neighbor lists are symmetrized by union, and the
// graph is optionally repaired to a single connected component (SGL needs
// a connected candidate graph to extract a spanning tree).
#pragma once

#include "graph/graph.hpp"
#include "knn/brute_force.hpp"
#include "knn/hnsw.hpp"

namespace sgl::knn {

enum class KnnBackend {
  kBruteForce,
  kHnsw,
  /// Brute force below 4,096 points, HNSW above.
  kAuto,
};

struct KnnGraphOptions {
  Index k = 5;
  KnnBackend backend = KnnBackend::kAuto;
  HnswOptions hnsw;
  /// Join components with their nearest cross-component pairs until the
  /// graph is connected.
  bool ensure_connected = true;
  /// Floor for distances when converting to weights, relative to the
  /// median positive neighbor distance (guards duplicate points). Purely
  /// relative, so uniformly rescaling the data rescales every weight by
  /// the same factor. Data with no positive neighbor distance (every
  /// point's k nearest neighbors duplicate it, even when distinct points
  /// exist further away) is rejected with a ContractViolation.
  Real distance_floor_rel = 1e-12;
  /// Worker threads for neighbor search and the connectivity repair scan
  /// (0 = library default from SGL_NUM_THREADS/hardware, 1 = serial).
  /// Results are identical for every thread count.
  Index num_threads = 0;
};

/// Builds the weighted kNN graph over the rows of `x`.
[[nodiscard]] graph::Graph build_knn_graph(const la::DenseMatrix& x,
                                           const KnnGraphOptions& options = {});

}  // namespace sgl::knn
