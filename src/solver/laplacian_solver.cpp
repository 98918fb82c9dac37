#include "solver/laplacian_solver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "common/enum_names.hpp"
#include "graph/components.hpp"

namespace sgl::solver {

la::CsrMatrix grounded_laplacian(const graph::Graph& g, Index ground) {
  const Index n = g.num_nodes();
  SGL_EXPECTS(n >= 2, "grounded_laplacian: need at least two nodes");
  SGL_EXPECTS(ground >= 0 && ground < n,
              "grounded_laplacian: ground node out of range");
  std::vector<la::Triplet> triplets;
  triplets.reserve(g.edges().size() * 4);
  const auto reduced = [ground](Index v) { return v > ground ? v - 1 : v; };
  for (const graph::Edge& e : g.edges()) {
    const bool s_live = (e.s != ground);
    const bool t_live = (e.t != ground);
    if (s_live) triplets.push_back({reduced(e.s), reduced(e.s), e.weight});
    if (t_live) triplets.push_back({reduced(e.t), reduced(e.t), e.weight});
    if (s_live && t_live) {
      triplets.push_back({reduced(e.s), reduced(e.t), -e.weight});
      triplets.push_back({reduced(e.t), reduced(e.s), -e.weight});
    }
  }
  return la::CsrMatrix::from_triplets(n - 1, n - 1, triplets);
}

namespace {
constexpr std::array<common::EnumName<LaplacianMethod>, 5> kMethodNames{{
    {LaplacianMethod::kCholesky, "cholesky"},
    {LaplacianMethod::kPcgJacobi, "pcg-jacobi"},
    {LaplacianMethod::kPcgIc0, "pcg-ic0"},
    {LaplacianMethod::kPcgTree, "pcg-tree"},
    {LaplacianMethod::kPcgAmg, "pcg-amg"},
}};
}  // namespace

const char* laplacian_method_name(LaplacianMethod method) {
  return common::enum_name(kMethodNames, method);
}

std::optional<LaplacianMethod> parse_laplacian_method(std::string_view name) {
  return common::parse_enum(kMethodNames, name);
}

std::string laplacian_method_name_list() {
  return common::enum_name_list(kMethodNames);
}

LaplacianPinvSolver::LaplacianPinvSolver(const graph::Graph& g,
                                         const LaplacianSolverOptions& options)
    : LaplacianPinvSolver(g, options, {}) {}

LaplacianPinvSolver::LaplacianPinvSolver(const graph::Graph& g,
                                         const LaplacianSolverOptions& options,
                                         std::vector<Index> ordering_hint)
    : n_(g.num_nodes()),
      factor_num_threads_(options.num_threads),
      method_(options.method),
      pcg_options_(options.pcg) {
  SGL_EXPECTS(n_ >= 2, "LaplacianPinvSolver: need at least two nodes");
  SGL_EXPECTS(graph::is_connected(g),
              "LaplacianPinvSolver: graph must be connected");

  grounded_ = grounded_laplacian(g, ground_);

  live_rows_.reserve(static_cast<std::size_t>(n_) - 1);
  for (Index i = 0; i < n_; ++i)
    if (i != ground_) live_rows_.push_back(i);

  switch (method_) {
    case LaplacianMethod::kCholesky:
      if (!ordering_hint.empty()) {
        SGL_EXPECTS(to_index(ordering_hint.size()) == n_ - 1,
                    "LaplacianPinvSolver: ordering hint size mismatch "
                    "(need a grounded-system permutation)");
        cholesky_ = std::make_unique<CholeskySolver>(
            grounded_, std::move(ordering_hint), options.num_threads);
      } else {
        cholesky_ = std::make_unique<CholeskySolver>(
            grounded_, options.ordering, options.num_threads);
      }
      break;
    case LaplacianMethod::kPcgJacobi:
      preconditioner_ = std::make_unique<JacobiPreconditioner>(grounded_);
      break;
    case LaplacianMethod::kPcgIc0:
      preconditioner_ = std::make_unique<Ic0Preconditioner>(grounded_);
      break;
    case LaplacianMethod::kPcgTree:
      preconditioner_ = std::make_unique<TreePreconditioner>(g);
      break;
    case LaplacianMethod::kPcgAmg:
      preconditioner_ = std::make_unique<AmgPreconditioner>(grounded_, options.amg);
      break;
  }
}

void LaplacianPinvSolver::apply_column(std::span<const Real> y,
                                       std::span<Real> x) const {
  // Project out the nullspace component, then drop the grounded entry.
  Real mean_acc = 0.0;
  for (const Real v : y) mean_acc += v;
  const Real mean = mean_acc / static_cast<Real>(n_);
  la::Vector b(static_cast<std::size_t>(n_ - 1));
  for (Index i = 0, j = 0; i < n_; ++i) {
    if (i == ground_) continue;
    b[static_cast<std::size_t>(j++)] = y[static_cast<std::size_t>(i)] - mean;
  }

  la::Vector xg;
  if (method_ == LaplacianMethod::kCholesky) {
    xg = cholesky_->solve(b);
    record_pcg_stats(0, 0, 0, 0);
  } else {
    xg.assign(b.size(), 0.0);
    const PcgResult res = pcg_solve(grounded_, b, xg, *preconditioner_,
                                    pcg_options_);
    record_pcg_stats(1, res.iterations, res.iterations, res.converged ? 1 : 0);
    if (!res.converged) {
      throw NumericalError(
          "LaplacianPinvSolver: PCG stalled at relative residual " +
              std::to_string(res.relative_residual),
          ErrorCode::kPcgStalled);
    }
  }

  // Re-insert the grounded node and center: for a connected graph the
  // grounded solution differs from L⁺y by a multiple of the ones vector.
  for (Index i = 0, j = 0; i < n_; ++i) {
    x[static_cast<std::size_t>(i)] =
        (i == ground_) ? 0.0 : xg[static_cast<std::size_t>(j++)];
  }
  Real out_mean = 0.0;
  for (const Real v : x) out_mean += v;
  out_mean /= static_cast<Real>(n_);
  for (Real& v : x) v -= out_mean;
}

la::Vector LaplacianPinvSolver::apply(const la::Vector& y) const {
  SGL_EXPECTS(to_index(y.size()) == n_, "LaplacianPinvSolver: size mismatch");
  la::Vector x(static_cast<std::size_t>(n_));
  apply_column(std::span<const Real>(y), std::span<Real>(x));
  return x;
}

bool LaplacianPinvSolver::update_edge(Index s, Index t, Real w) {
  SGL_EXPECTS(s >= 0 && s < n_ && t >= 0 && t < n_ && s != t,
              "LaplacianPinvSolver::update_edge: bad edge");
  if (!cholesky_) return false;  // no in-place path on the PCG methods
  // Map graph nodes to grounded indices: the ground node drops out of the
  // reduced system, so a ground-incident edge stamps only the other
  // endpoint's diagonal (kInvalidIndex marks the dropped endpoint).
  const auto reduced = [this](Index v) { return v > ground_ ? v - 1 : v; };
  Index u = kInvalidIndex;
  Index v = kInvalidIndex;
  if (s == ground_) {
    u = reduced(t);
  } else if (t == ground_) {
    u = reduced(s);
  } else {
    u = reduced(s);
    v = reduced(t);
  }
  if (!cholesky_->edge_in_pattern(u, v)) return false;
  cholesky_->update_edge(u, v, w);
  return true;
}

void LaplacianPinvSolver::refactorize(const graph::Graph& g) {
  SGL_EXPECTS(g.num_nodes() == n_,
              "LaplacianPinvSolver::refactorize: node count mismatch");
  grounded_ = grounded_laplacian(g, ground_);
  if (cholesky_) cholesky_->refactorize(grounded_, factor_num_threads_);
  // PCG methods: the preconditioner setup is kept on purpose — see the
  // header contract.
}

void LaplacianPinvSolver::apply_block(la::ConstBlockView y, la::BlockView x,
                                      Index num_threads) const {
  apply_block(y, x, pcg_options_, num_threads);
}

void LaplacianPinvSolver::apply_block(la::ConstBlockView y, la::BlockView x,
                                      const PcgOptions& pcg,
                                      Index num_threads) const {
  SGL_EXPECTS(y.rows == n_ && x.rows == n_,
              "LaplacianPinvSolver::apply_block: row count mismatch");
  SGL_EXPECTS(y.cols == x.cols,
              "LaplacianPinvSolver::apply_block: column count mismatch");
  if (y.cols == 0) return;

  // Both paths hoist the nullspace projection and grounding into
  // MultiVector kernels. Every step sums in the same fixed order as
  // apply_column, so the block equals b sequential apply() calls bitwise.
  const la::Vector means = la::column_means(y, num_threads);
  la::MultiVector bg(n_ - 1, y.cols);
  la::gather_rows(y, live_rows_, bg.view(), num_threads);
  la::shift_columns(bg.view(), means, num_threads);

  if (method_ == LaplacianMethod::kCholesky) {
    // Stream the factor once for the whole block: one pair of
    // level-parallel triangular sweeps.
    cholesky_->solve_in_place_block(bg.view(), num_threads);
    record_pcg_stats(0, 0, 0, 0);
  } else {
    // Block PCG: one SpMM and one Preconditioner::apply_block per
    // iteration, per-column convergence with deflation. The iterate
    // starts at pcg.initial_guess when provided (warm start, DESIGN.md
    // §8), otherwise at zero — exactly like apply_column's per-RHS
    // solves.
    la::MultiVector xg(n_ - 1, y.cols);
    if (pcg.initial_guess.data != nullptr) {
      SGL_EXPECTS(pcg.initial_guess.rows == n_ - 1 &&
                      pcg.initial_guess.cols == y.cols,
                  "LaplacianPinvSolver::apply_block: initial_guess shape "
                  "mismatch (need (n-1) x cols, grounded coordinates)");
      for (Index j = 0; j < y.cols; ++j) {
        const auto src = pcg.initial_guess.col(j);
        const auto dst = xg.col(j);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    PcgOptions options = pcg;
    if (num_threads != 0) options.num_threads = num_threads;
    const PcgBlockResult res =
        pcg_solve_block(grounded_, bg.view(), xg.view(), *preconditioner_,
                        options);
    Index converged = 0;
    for (const PcgResult& c : res.columns) converged += c.converged ? 1 : 0;
    record_pcg_stats(y.cols, res.max_iterations(), res.total_iterations(),
                     converged);
    if (!res.all_converged()) {
      const Index j = res.first_unconverged();
      const PcgResult& c = res.columns[static_cast<std::size_t>(j)];
      throw NumericalError(
          "LaplacianPinvSolver: PCG stalled on block column " +
              std::to_string(j) + " at relative residual " +
              std::to_string(c.relative_residual),
          ErrorCode::kPcgStalled);
    }
    if (pcg.final_iterate.data != nullptr) {
      SGL_EXPECTS(pcg.final_iterate.rows == n_ - 1 &&
                      pcg.final_iterate.cols == y.cols,
                  "LaplacianPinvSolver::apply_block: final_iterate shape "
                  "mismatch (need (n-1) x cols, grounded coordinates)");
      for (Index j = 0; j < y.cols; ++j) {
        const auto src = xg.col(j);
        const auto dst = pcg.final_iterate.col(j);
        std::copy(src.begin(), src.end(), dst.begin());
      }
    }
    bg = std::move(xg);
  }

  // Re-insert the grounded node (zero row) and center: the grounded
  // solution differs from L⁺y by a multiple of the ones vector.
  for (Index j = 0; j < x.cols; ++j) x.at(ground_, j) = 0.0;
  la::scatter_rows(bg.view(), live_rows_, x, num_threads);
  la::center_columns(x, num_threads);
}

void LaplacianPinvSolver::record_pcg_stats(Index columns, Index max_iters,
                                           Index total_iters,
                                           Index converged) const noexcept {
  // One locked write per solve: the snapshot readers hand out is always
  // the four fields of a single solve, never a torn mix of two racing
  // applies (the pre-lock relaxed-atomic version could interleave).
  const common::MutexLock lock(stats_mutex_);
  pcg_stats_.columns = columns;
  pcg_stats_.max_iterations = max_iters;
  pcg_stats_.total_iterations = total_iters;
  pcg_stats_.converged_columns = converged;
}

Real LaplacianPinvSolver::effective_resistance(Index s, Index t) const {
  SGL_EXPECTS(s >= 0 && s < n_ && t >= 0 && t < n_,
              "effective_resistance: node out of range");
  SGL_EXPECTS(s != t, "effective_resistance: distinct nodes required");
  la::Vector e(static_cast<std::size_t>(n_), 0.0);
  e[static_cast<std::size_t>(s)] = 1.0;
  e[static_cast<std::size_t>(t)] = -1.0;
  const la::Vector x = apply(e);
  return x[static_cast<std::size_t>(s)] - x[static_cast<std::size_t>(t)];
}

}  // namespace sgl::solver
