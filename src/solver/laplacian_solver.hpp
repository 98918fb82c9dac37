// Exact application of the Laplacian pseudo-inverse L⁺.
//
// For a connected graph, grounding one node makes the reduced system SPD;
// solving the grounded system and re-centering the result gives exactly
// L⁺y whenever the right-hand side is orthogonal to the all-ones vector —
// the situation everywhere in SGL (current vectors sum to zero, e_s − e_t
// probes, Lanczos iterates). This facade hides the grounding bookkeeping
// behind one solver choice: a direct LDLᵀ factorization (the default; it
// wins on every calibrated workload, DESIGN.md §11) or PCG with a Jacobi,
// IC(0), spanning-tree or AMG preconditioner, mirroring how a circuit
// simulator grounds a node of the admittance matrix.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "graph/graph.hpp"
#include "la/multi_vector.hpp"
#include "solver/amg.hpp"
#include "solver/cholesky.hpp"
#include "solver/ic0.hpp"
#include "solver/pcg.hpp"
#include "solver/tree_preconditioner.hpp"

namespace sgl::solver {

/// Direct LDLᵀ or preconditioned CG. There is no auto choice: Cholesky
/// beats PCG-AMG on every calibrated graph, ultra-sparse learned graphs and
/// meshes up to 150k nodes alike (BENCH_policies.json, DESIGN.md §11), so
/// it is the default and the PCG methods are reached only by asking for
/// them.
enum class LaplacianMethod {
  kCholesky,
  kPcgJacobi,
  kPcgIc0,
  kPcgTree,
  kPcgAmg,
};

/// Reduced Laplacian of `g` with the `ground` row/column deleted (node
/// i > ground maps to i − 1) — SPD for connected graphs. The exact matrix
/// LaplacianPinvSolver factors; exported so tests and benchmarks build
/// their SPD systems with the production grounding convention.
[[nodiscard]] la::CsrMatrix grounded_laplacian(const graph::Graph& g,
                                               Index ground = 0);

/// CLI-facing name of a method ("cholesky", "pcg-jacobi", …, "pcg-amg").
[[nodiscard]] const char* laplacian_method_name(LaplacianMethod method);

/// Inverse of laplacian_method_name; nullopt for unknown names.
[[nodiscard]] std::optional<LaplacianMethod> parse_laplacian_method(
    std::string_view name);

/// Comma-joined valid names for CLI error messages.
[[nodiscard]] std::string laplacian_method_name_list();

struct LaplacianSolverOptions {
  LaplacianMethod method = LaplacianMethod::kCholesky;
  OrderingMethod ordering = OrderingMethod::kAuto;
  /// Worker threads for the numeric factorization (0 = library default,
  /// 1 = serial). The factor is bit-identical for every value.
  Index num_threads = 0;
  PcgOptions pcg;
  AmgOptions amg;
};

/// Iteration statistics of the most recent block solve on a PCG method —
/// the iterative-path counterpart of FactorStats (all zero on the
/// Cholesky path, which runs no iterations).
struct PcgBlockStats {
  /// Block width of the last apply_block (1 after a scalar apply()).
  Index columns = 0;
  /// Max per-column iteration count — the block iterations actually run.
  Index max_iterations = 0;
  /// Sum over columns — the work a per-column solver would have streamed.
  Index total_iterations = 0;
  Index converged_columns = 0;
};

class LaplacianPinvSolver {
 public:
  /// Builds a solver for the Laplacian of `g`. The graph must be connected
  /// (checked; required for pseudo-inverse semantics).
  explicit LaplacianPinvSolver(const graph::Graph& g,
                               const LaplacianSolverOptions& options = {});

  /// Same, but a non-empty `ordering_hint` (a permutation of the grounded
  /// system returned by cholesky_permutation() on a previous solver of a
  /// same-node-count graph) replaces the ordering heuristic on the
  /// Cholesky path — the dominant rebuild cost on near-tree graphs, and a
  /// permutation computed a few edges ago is still a good fill reducer
  /// (DESIGN.md §8). An empty hint, or a PCG method, behaves exactly like
  /// the plain constructor.
  LaplacianPinvSolver(const graph::Graph& g,
                      const LaplacianSolverOptions& options,
                      std::vector<Index> ordering_hint);

  /// x = L⁺ y. `y` is centered internally, so any vector may be passed;
  /// the component along the all-ones nullspace is ignored, exactly as the
  /// pseudo-inverse prescribes. Safe to call concurrently from multiple
  /// threads (the factorization/preconditioner is read-only after
  /// construction), which is what apply_block relies on.
  [[nodiscard]] la::Vector apply(const la::Vector& y) const;

  /// X = L⁺ Y for an n × b block of right-hand sides — the multi-RHS hot
  /// path. All b solves share this solver's factorization/preconditioner
  /// (built once at construction). On the Cholesky path the whole block
  /// goes through ONE pair of level-parallel triangular sweeps (the
  /// factor's nonzeros are streamed once per block, not once per column),
  /// with grounding gather/scatter and centering hoisted into MultiVector
  /// kernels; PCG methods run block PCG (pcg_solve_block): one CSR SpMM
  /// and one Preconditioner::apply_block per iteration, with converged
  /// columns deflated. Every output element is computed in the same fixed
  /// order as apply(), so the block result is bit-identical to b
  /// sequential apply() calls for every thread count and block width.
  /// PCG convergence is checked per RHS; if any column stalls, the whole
  /// block finishes and a NumericalError naming the first stalled column
  /// (by its index in Y) is thrown. `num_threads`: 0 = library default,
  /// 1 = serial.
  void apply_block(la::ConstBlockView y, la::BlockView x,
                   Index num_threads = 0) const;

  /// apply_block with explicit per-call PCG options, the warm-start entry
  /// point (DESIGN.md §8): on the PCG methods `pcg.initial_guess` seeds
  /// the internal grounded iterate (an (n−1) × b block in grounded
  /// coordinates) and `pcg.final_iterate` receives the converged grounded
  /// iterate for the caller to feed back next time. Null views — the
  /// default PcgOptions — reproduce the zero-guess solve bitwise; the
  /// Cholesky path ignores both (a direct solve has no iterate).
  void apply_block(la::ConstBlockView y, la::BlockView x,
                   const PcgOptions& pcg, Index num_threads = 0) const;

  /// Convenience overload for measurement-matrix callers.
  [[nodiscard]] la::DenseMatrix apply_block(const la::DenseMatrix& y,
                                            Index num_threads = 0) const {
    la::DenseMatrix x(y.rows(), y.cols());
    apply_block(la::view_of(y), la::view_of(x), num_threads);
    return x;
  }

  /// Effective resistance between s and t: (e_s − e_t)ᵀ L⁺ (e_s − e_t).
  [[nodiscard]] Real effective_resistance(Index s, Index t) const;

  // --- Incremental maintenance (DESIGN.md §8) ----------------------------

  /// Applies the Laplacian stamp of graph edge (s, t) with weight delta
  /// `w` directly to the warm factor (rank-1 update/downdate along the
  /// elimination-tree path). Returns false — with the solver unchanged —
  /// when there is no in-place path: the method is not Cholesky,
  /// or the stamp falls outside the analyzed factor pattern; the caller
  /// rebuilds or renumerates instead. Throws NumericalError on a downdate
  /// that would lose positive definiteness (factor unchanged). NOTE: only
  /// the factor is updated; the cached reduced Laplacian goes stale,
  /// which is harmless on the Cholesky path (solves never read it) and is
  /// re-synced by the next refactorize(). Not thread-safe against
  /// concurrent apply() calls — update between solve batches, as the
  /// learner does.
  bool update_edge(Index s, Index t, Real w);

  /// Rebuilds the reduced Laplacian from the CURRENT state of `g` and
  /// renumerates the warm factor with the kept symbolic analysis
  /// (Cholesky: numeric-only phase, bit-identical to a fresh same-ordering
  /// factorization; precondition — `g`'s grounded pattern is contained in
  /// the analyzed pattern, e.g. only weights changed or every new edge
  /// passed update_edge). On the PCG methods the preconditioner setup is
  /// deliberately KEPT: with an unchanged pattern it remains a valid SPD
  /// approximate inverse, trading a few extra iterations for the setup
  /// cost. `g` must have the node count this solver was built for.
  void refactorize(const graph::Graph& g);

  [[nodiscard]] Index num_nodes() const noexcept { return n_; }

  /// The solver method this instance runs (options.method).
  [[nodiscard]] LaplacianMethod method() const noexcept { return method_; }

  /// Factorization statistics (nnz, supernodes, levels, seconds) when the
  /// method is Cholesky; nullptr for the PCG methods, which hold
  /// no factor.
  [[nodiscard]] const FactorStats* factor_stats() const noexcept {
    return cholesky_ ? &cholesky_->stats() : nullptr;
  }

  /// The grounded-system fill-reducing permutation of the Cholesky factor
  /// (empty on the PCG methods) — feed it to the ordering-hint constructor
  /// to rebuild over a grown pattern without re-running the ordering
  /// heuristic.
  [[nodiscard]] const std::vector<Index>& cholesky_permutation() const {
    static const std::vector<Index> kEmpty;
    return cholesky_ ? cholesky_->permutation() : kEmpty;
  }

  /// PCG iterations spent in the most recent apply() or — max over the
  /// block's columns — apply_block() (0 on the Cholesky path, which
  /// resets the counter). Under concurrent calls this reports whichever
  /// solve recorded last; the value is always from ONE solve, never a
  /// mix.
  [[nodiscard]] Index last_pcg_iterations() const noexcept
      SGL_EXCLUDES(stats_mutex_) {
    const common::MutexLock lock(stats_mutex_);
    return pcg_stats_.max_iterations;
  }

  /// Per-block iteration statistics of the most recent apply()/
  /// apply_block() on a PCG method — the iterative-path counterpart of
  /// factor_stats(). All zero on the Cholesky path. The whole struct is
  /// written and read under one lock, so the snapshot is always
  /// internally consistent (it describes exactly one solve, even under
  /// concurrent applies — which one is unspecified).
  [[nodiscard]] PcgBlockStats pcg_block_stats() const noexcept
      SGL_EXCLUDES(stats_mutex_) {
    const common::MutexLock lock(stats_mutex_);
    return pcg_stats_;
  }

 private:
  /// One grounded solve: the shared per-column kernel behind apply() and
  /// apply_block(). `y` and `x` may alias.
  void apply_column(std::span<const Real> y, std::span<Real> x) const;

  Index n_ = 0;
  Index ground_ = 0;  // grounded node (index 0 by convention)
  Index factor_num_threads_ = 0;  // construction thread knob, for refactorize
  LaplacianMethod method_ = LaplacianMethod::kCholesky;
  la::CsrMatrix grounded_;  // (n−1)×(n−1) SPD reduced Laplacian
  std::vector<Index> live_rows_;  // the n−1 non-ground node indices
  std::unique_ptr<CholeskySolver> cholesky_;
  std::unique_ptr<Preconditioner> preconditioner_;
  PcgOptions pcg_options_;
  /// Records one solve's statistics (block width, per-column iteration
  /// counts) into the guarded diagnostic snapshot. Once per apply()/
  /// apply_block() call, so the lock is nowhere near a hot loop.
  void record_pcg_stats(Index columns, Index max_iters, Index total_iters,
                        Index converged) const noexcept
      SGL_EXCLUDES(stats_mutex_);

  // Diagnostic counters shared by concurrent apply() calls (multi-RHS
  // solves issue them from pool workers). Guarded by one mutex — not
  // per-field relaxed atomics — so readers can never observe a snapshot
  // torn across two racing solves; the thread-safety analysis enforces
  // the locking discipline (DESIGN.md §7).
  mutable common::Mutex stats_mutex_;
  mutable PcgBlockStats pcg_stats_ SGL_GUARDED_BY(stats_mutex_);
};

}  // namespace sgl::solver
