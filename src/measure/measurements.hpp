// Voltage/current measurement generation (paper §III-A experimental setup)
// and the noise / subsampling models used by the evaluation figures.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "la/dense_matrix.hpp"
#include "solver/laplacian_solver.hpp"

namespace sgl::measure {

/// Paired measurement matrices: column i of `voltages` is the response of
/// the resistor network to the current excitation in column i of
/// `currents` (L* x_i = y_i).
struct Measurements {
  la::DenseMatrix voltages;  // X ∈ R^{N×M}
  la::DenseMatrix currents;  // Y ∈ R^{N×M}
};

struct MeasurementOptions {
  Index num_measurements = 50;  // M
  std::uint64_t seed = 2021;
  solver::LaplacianSolverOptions solver;
  /// Worker threads for the M independent voltage solves (0 = library
  /// default, 1 = serial). Current vectors are always drawn serially from
  /// the seeded RNG, so the measurements are identical for every thread
  /// count.
  Index num_threads = 0;
};

/// The M current excitations of the paper's setup, drawn serially from
/// Rng(seed): standard-normal columns, centered (orthogonal to the
/// all-ones vector) and normalized to unit length.
[[nodiscard]] la::DenseMatrix measurement_currents(Index num_nodes,
                                                   Index num_measurements,
                                                   std::uint64_t seed);

/// Generates M measurement pairs exactly as the paper's setup prescribes:
/// the currents of measurement_currents(N, M, options.seed), with voltages
/// from Laplacian solves on the ground-truth graph.
[[nodiscard]] Measurements generate_measurements(
    const graph::Graph& ground_truth, const MeasurementOptions& options = {});

/// Paper §III-B(e) noise model: per column x̃ = x + ζ‖x‖₂ ε with ε a
/// unit-norm Gaussian direction; ζ is the relative noise level.
void add_noise(la::DenseMatrix& voltages, Real zeta, std::uint64_t seed);

/// Random node subset of the given size (Fig. 8 reduced-network setting);
/// returned indices are sorted and unique.
[[nodiscard]] std::vector<Index> sample_nodes(Index num_nodes, Index subset,
                                              std::uint64_t seed);

/// Row-submatrix X(S, :) for a sorted node subset.
[[nodiscard]] la::DenseMatrix take_rows(const la::DenseMatrix& x,
                                        const std::vector<Index>& rows);

}  // namespace sgl::measure
