// MatrixMarket I/O.
//
// Lets users run the library on the paper's original SuiteSparse matrices
// (fe_4elt2, airfoil, crack, G2_circuit, ...) when those files are
// available locally, and exports learned graphs for external tooling.
#pragma once

#include <string>

#include "graph/graph.hpp"
#include "la/sparse.hpp"

namespace sgl::graph {

/// How to turn a square matrix into a graph.
enum class MatrixInterpretation {
  /// Off-diagonal entries are edge weights; values ≤ 0 use |value|,
  /// pattern files use weight 1. Diagonal ignored.
  kAdjacency,
  /// The matrix is a (possibly Laplacian-like) M-matrix: edge weight for
  /// (i, j) is −a_ij when a_ij < 0; nonnegative off-diagonals are ignored.
  kLaplacian,
};

/// Reads a MatrixMarket "matrix coordinate real|integer|pattern
/// general|symmetric" file. Symmetric storage is expanded. Throws
/// ContractViolation on malformed input: a truncated entry list, an entry
/// out of range, or a value that is not a finite number.
[[nodiscard]] la::CsrMatrix read_matrix_market(const std::string& path);

/// Parses one whitespace-delimited MatrixMarket value token (the whole
/// token, as std::strtod reads it). Throws ContractViolation prefixed with
/// `reader` and naming the 1-based `row`/`col` when the token is not a
/// number or is not finite ("nan", "inf", an overflowing "1e400"). Shared
/// by the sparse reader and the dense measurement reader.
[[nodiscard]] Real parse_matrix_market_value(const std::string& token,
                                             const char* reader, long row,
                                             long col);

/// Converts a square sparse matrix into an undirected graph, deduplicating
/// (i, j)/(j, i) pairs.
[[nodiscard]] Graph graph_from_matrix(const la::CsrMatrix& matrix,
                                      MatrixInterpretation interpretation);

/// Convenience: read + interpret in one call.
[[nodiscard]] Graph read_graph_matrix_market(
    const std::string& path,
    MatrixInterpretation interpretation = MatrixInterpretation::kLaplacian);

/// Writes the graph's Laplacian in MatrixMarket symmetric coordinate
/// format (lower triangle).
void write_laplacian_matrix_market(const Graph& g, const std::string& path);

}  // namespace sgl::graph
