// Figure 11: runtime scalability of SGL.
//
// Paper: total runtime of Steps 2–5 (spectral embedding, edge
// identification, convergence checking, edge scaling) versus node count,
// excluding kNN construction — near-linear growth. The measure_seconds
// column times the measurement generation (§III-A setup: M Laplacian
// solves on the ground truth), which the paper's plot leaves out.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sgl;
  const bench::Args args(argc, argv);
  const Index m = static_cast<Index>(args.get_int("measurements", 50));
  const bool full = args.get_int("full", 0) != 0;

  bench::banner("fig11_scaling",
                "runtime of Steps 2-5 vs node count (kNN excluded): "
                "near-linear scaling");

  std::vector<Index> sides;
  if (args.quick()) sides = {16, 32, 64};
  else if (full) sides = {32, 64, 128, 256, 512};
  else sides = {32, 64, 128, 256};

  std::printf("nodes,edges,iterations,measure_seconds,knn_seconds,"
              "learn_seconds,microseconds_per_node\n");
  for (const Index side : sides) {
    const graph::MeshGraph mesh = graph::make_grid2d(side, side, true);
    measure::MeasurementOptions mopt;
    mopt.num_measurements = m;
    const WallTimer measure_timer;
    const measure::Measurements data =
        measure::generate_measurements(mesh.graph, mopt);
    const double measure_seconds = measure_timer.seconds();

    core::SglConfig config;
    config.knn.hnsw.ef_construction = 120;
    const core::SglResult result =
        core::learn_graph(data.voltages, data.currents, config);

    const Real us_per_node = 1e6 * result.learn_seconds /
                             static_cast<Real>(mesh.graph.num_nodes());
    std::printf("%d,%d,%d,%.3f,%.2f,%.3f,%.2f\n", mesh.graph.num_nodes(),
                mesh.graph.num_edges(), result.iterations, measure_seconds,
                result.knn_seconds, result.learn_seconds, us_per_node);
  }
  std::printf("# near-linear scaling <=> microseconds_per_node roughly flat "
              "(mild log factor expected)\n");
  return 0;
}
