// Calibration of the library's two auto policies (DESIGN.md §11): the
// LaplacianPinvSolver default method (direct Cholesky vs PCG-AMG) and
// compute_ordering(kAuto) (minimum degree vs nested dissection).
//
// Graphs: the figure workloads' ground truths (periodic 2D meshes 32² to
// 256², the airfoil / crack / fe4elt2 / G2_circuit surrogates) and one
// learned ultra-sparse graph (SGL run on the 128² mesh's measurements).
// Per graph, on the grounded Laplacian it times the measurement solve
// three ways:
//   - Cholesky after minimum-degree and after nested-dissection ordering,
//     each as ordering seconds, factor seconds (LaplacianPinvSolver
//     construction on that permutation: permute + symbolic + numeric),
//     nnz(L) and the solve of the M = 50 measurement excitations
//     (apply_block on measure::measurement_currents, the right-hand sides
//     generate_measurements solves);
//   - PCG-AMG setup plus the same M-column solve, with its iterations.
// Every time is the median of 3 runs. Output is one JSON document
// on stdout: a host record (nproc, solver threads, build type, compiler)
// and one row per graph with the winners it implies (by total seconds).
// BENCH_policies.json is this program's committed output.
//
//   sgl_calib_policies [--quick]    (--quick: small graphs only, < 1 s)
#include <sched.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace sgl;

constexpr Index kMeasurements = 50;  // M, the paper's setup (§III-A)
constexpr Index kRepeats = 3;        // every time is the median of these

struct OrderingLeg {
  double order_s = 0.0;
  double factor_s = 0.0;  // LaplacianPinvSolver construction with the ordering
  Index factor_nnz = 0;
  double solve_s = 0.0;  // M-column apply_block on that factor
  [[nodiscard]] double total_s() const { return order_s + factor_s + solve_s; }
};

struct Row {
  std::string name;
  Index n = 0;
  Index edges = 0;
  double avg_row = 0.0;  // nnz per row of the grounded Laplacian
  OrderingLeg md;
  OrderingLeg nd;
  double amg_setup_s = 0.0;
  double amg_solve_s = 0.0;
  Index amg_iterations = 0;
  [[nodiscard]] bool md_wins() const { return md.total_s() < nd.total_s(); }
  [[nodiscard]] const OrderingLeg& direct() const { return md_wins() ? md : nd; }
  [[nodiscard]] double amg_total_s() const { return amg_setup_s + amg_solve_s; }
};

double median_seconds(const std::function<void()>& fn) {
  std::vector<double> t;
  for (Index r = 0; r < kRepeats; ++r) {
    const WallTimer timer;
    fn();
    t.push_back(timer.seconds());
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// The direct leg with one ordering: order the grounded Laplacian, build
/// the Cholesky solver on that permutation, solve the M columns.
OrderingLeg time_direct(const graph::Graph& g, const la::CsrMatrix& a,
                        solver::OrderingMethod method, const la::DenseMatrix& y,
                        la::DenseMatrix& x) {
  OrderingLeg leg;
  std::vector<Index> perm;
  leg.order_s = median_seconds([&] {
    perm = solver::compute_ordering(a, method);
  });
  solver::LaplacianSolverOptions options;
  options.method = solver::LaplacianMethod::kCholesky;
  std::optional<solver::LaplacianPinvSolver> pinv;
  leg.factor_s = median_seconds([&] { pinv.emplace(g, options, perm); });
  leg.factor_nnz = pinv->factor_stats()->factor_nnz;
  leg.solve_s = median_seconds([&] {
    pinv->apply_block(la::view_of(y), la::view_of(x));
  });
  return leg;
}

Row calibrate(const std::string& name, const graph::Graph& g) {
  Row row;
  row.name = name;
  row.n = g.num_nodes();
  row.edges = g.num_edges();
  const la::CsrMatrix a = solver::grounded_laplacian(g);
  row.avg_row = static_cast<double>(a.nnz()) / static_cast<double>(a.rows());
  const la::DenseMatrix y = measure::measurement_currents(
      row.n, kMeasurements, measure::MeasurementOptions{}.seed);
  la::DenseMatrix x(row.n, kMeasurements);

  row.md = time_direct(g, a, solver::OrderingMethod::kMinimumDegree, y, x);
  row.nd = time_direct(g, a, solver::OrderingMethod::kNestedDissection, y, x);

  solver::LaplacianSolverOptions iterative;
  iterative.method = solver::LaplacianMethod::kPcgAmg;
  std::optional<solver::LaplacianPinvSolver> amg;
  row.amg_setup_s = median_seconds([&] { amg.emplace(g, iterative); });
  row.amg_solve_s = median_seconds([&] {
    amg->apply_block(la::view_of(y), la::view_of(x));
  });
  row.amg_iterations = amg->pcg_block_stats().max_iterations;
  std::fprintf(stderr, "# %s done\n", name.c_str());
  return row;
}

void print_leg(const char* key, const OrderingLeg& leg) {
  std::printf("\"%s\": {\"order_s\": %.4f, \"factor_s\": %.4f, "
              "\"factor_nnz\": %d, \"solve_s\": %.4f, \"total_s\": %.4f}",
              key, leg.order_s, leg.factor_s, leg.factor_nnz, leg.solve_s,
              leg.total_s());
}

void print_row(const Row& r, bool last) {
  std::printf("  {\"graph\": \"%s\", \"n\": %d, \"edges\": %d, "
              "\"avg_row\": %.3f,\n   ",
              r.name.c_str(), r.n, r.edges, r.avg_row);
  print_leg("cholesky_amd", r.md);
  std::printf(",\n   ");
  print_leg("cholesky_nd", r.nd);
  std::printf(",\n   \"pcg_amg\": {\"setup_s\": %.4f, \"solve_s\": %.4f, "
              "\"total_s\": %.4f, \"iterations\": %d},\n",
              r.amg_setup_s, r.amg_solve_s, r.amg_total_s(), r.amg_iterations);
  std::printf("   \"ordering_winner\": \"%s\", \"method_winner\": \"%s\", "
              "\"amg_over_cholesky\": %.2f}%s\n",
              r.md_wins() ? "amd" : "nd",
              r.direct().total_s() <= r.amg_total_s() ? "cholesky" : "pcg-amg",
              r.amg_total_s() / r.direct().total_s(), last ? "" : ",");
}

int available_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof cpus, &cpus) != 0) return 1;
  return std::max(1, CPU_COUNT(&cpus));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args(argc, argv);

  std::vector<std::pair<std::string, graph::Graph>> graphs;
  const std::vector<Index> sides = args.quick()
                                       ? std::vector<Index>{16, 32}
                                       : std::vector<Index>{32, 64, 96, 128, 192, 256};
  for (const Index side : sides)
    graphs.emplace_back("grid2d_" + std::to_string(side),
                        graph::make_grid2d(side, side, true).graph);
  if (!args.quick()) {
    graphs.emplace_back("airfoil", graph::make_airfoil_surrogate().graph);
    graphs.emplace_back("crack", graph::make_crack_surrogate().graph);
    graphs.emplace_back("fe4elt2", graph::make_fe4elt2_surrogate().graph);
    graphs.emplace_back("g2circuit", graph::make_g2_circuit_surrogate().graph);
  }
  {
    // One learned graph: SGL output on a periodic mesh's measurements.
    const Index side = args.quick() ? 24 : 128;
    const graph::Graph truth = graph::make_grid2d(side, side, true).graph;
    measure::MeasurementOptions mopt;
    mopt.num_measurements = kMeasurements;
    const measure::Measurements data = measure::generate_measurements(truth, mopt);
    graphs.emplace_back("learned_grid2d_" + std::to_string(side),
                        core::learn_graph(data.voltages, data.currents).learned);
  }

#ifdef NDEBUG
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
#ifdef __clang__
  const char* compiler = "clang " __VERSION__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::vector<Row> rows;
  rows.reserve(graphs.size());
  for (const auto& [name, g] : graphs)
    rows.push_back(calibrate(name, g));

  std::printf("{\"host\": {\"nproc\": %d, \"solver_threads\": %d, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"measurements\": %d, \"repeats\": %d, \"statistic\": "
              "\"median\"},\n \"rows\": [\n",
              available_cpus(), parallel::default_num_threads(), build_type,
              compiler, kMeasurements, kRepeats);
  for (std::size_t i = 0; i < rows.size(); ++i)
    print_row(rows[i], i + 1 == rows.size());
  std::printf(" ]}\n");
  return 0;
}
