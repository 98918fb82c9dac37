#include "measure/measurements.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "la/multi_vector.hpp"

namespace sgl::measure {

la::DenseMatrix measurement_currents(Index num_nodes, Index num_measurements,
                                     std::uint64_t seed) {
  SGL_EXPECTS(num_nodes >= 1 && num_measurements >= 1,
              "measurement_currents: empty excitation block");
  Rng rng(seed);
  la::DenseMatrix currents(num_nodes, num_measurements);
  // Drawn serially so the RNG stream (and therefore every measurement) is
  // independent of the thread count.
  la::Vector y(static_cast<std::size_t>(num_nodes));
  for (Index i = 0; i < num_measurements; ++i) {
    for (Real& v : y) v = rng.normal();
    la::center(y);     // current conservation: Σ y = 0
    la::normalize(y);  // unit excitation
    currents.set_col(i, y);
  }
  return currents;
}

Measurements generate_measurements(const graph::Graph& ground_truth,
                                   const MeasurementOptions& options) {
  const Index n = ground_truth.num_nodes();
  const Index m = options.num_measurements;
  SGL_EXPECTS(m >= 1, "generate_measurements: need at least one measurement");
  SGL_EXPECTS(n >= 3, "generate_measurements: graph too small");

  // The factorization inherits the measurement thread knob unless the
  // solver options pin their own (results are identical either way).
  solver::LaplacianSolverOptions solver_options = options.solver;
  if (solver_options.num_threads == 0)
    solver_options.num_threads = options.num_threads;
  const solver::LaplacianPinvSolver pinv(ground_truth, solver_options);

  Measurements out;
  out.currents = measurement_currents(n, m, options.seed);
  out.voltages = la::DenseMatrix(n, m);

  // The M voltage solves are one multi-RHS block apply of the shared
  // factorization (the same per-column arithmetic for every thread
  // count, so measurements never depend on the knob).
  pinv.apply_block(la::view_of(out.currents), la::view_of(out.voltages),
                   options.num_threads);
  return out;
}

void add_noise(la::DenseMatrix& voltages, Real zeta, std::uint64_t seed) {
  SGL_EXPECTS(zeta >= 0.0, "add_noise: negative noise level");
  if (zeta == 0.0) return;
  Rng rng(seed);
  la::Vector eps(static_cast<std::size_t>(voltages.rows()));
  for (Index j = 0; j < voltages.cols(); ++j) {
    for (Real& v : eps) v = rng.normal();
    la::normalize(eps);
    auto col = voltages.col(j);
    Real norm = 0.0;
    for (const Real v : col) norm += v * v;
    norm = std::sqrt(norm);
    for (Index i = 0; i < voltages.rows(); ++i)
      col[i] += zeta * norm * eps[static_cast<std::size_t>(i)];
  }
}

std::vector<Index> sample_nodes(Index num_nodes, Index subset,
                                std::uint64_t seed) {
  SGL_EXPECTS(subset >= 1 && subset <= num_nodes,
              "sample_nodes: subset size out of range");
  Rng rng(seed);
  std::vector<Index> all(static_cast<std::size_t>(num_nodes));
  std::iota(all.begin(), all.end(), Index{0});
  shuffle(all, rng);
  all.resize(static_cast<std::size_t>(subset));
  std::sort(all.begin(), all.end());
  return all;
}

la::DenseMatrix take_rows(const la::DenseMatrix& x,
                          const std::vector<Index>& rows) {
  la::DenseMatrix out(to_index(rows.size()), x.cols());
  for (Index j = 0; j < x.cols(); ++j) {
    const auto src = x.col(j);
    auto dst = out.col(j);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      SGL_EXPECTS(rows[i] >= 0 && rows[i] < x.rows(),
                  "take_rows: row index out of range");
      dst[to_index(i)] = src[rows[i]];
    }
  }
  return out;
}

}  // namespace sgl::measure
