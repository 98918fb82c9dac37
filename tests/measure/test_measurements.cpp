// Unit tests for measurement generation, noise, and subsampling.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "measure/measurements.hpp"

namespace sgl::measure {
namespace {

TEST(Measurements, CurrentsAreCenteredAndUnitNorm) {
  const graph::Graph g = graph::make_grid2d(8, 8).graph;
  MeasurementOptions options;
  options.num_measurements = 12;
  const Measurements m = generate_measurements(g, options);
  ASSERT_EQ(m.currents.cols(), 12);
  for (Index i = 0; i < 12; ++i) {
    const la::Vector y = m.currents.col_vector(i);
    EXPECT_NEAR(la::mean(y), 0.0, 1e-12);
    EXPECT_NEAR(la::norm2(y), 1.0, 1e-12);
  }
}

TEST(Measurements, CurrentsAreTheSharedExcitationBlock) {
  // generate_measurements solves exactly the block measurement_currents
  // draws, so callers that time or replay the measurement solve (the
  // policy calibration) get the same right-hand sides.
  const graph::Graph g = graph::make_grid2d(6, 5).graph;
  MeasurementOptions options;
  options.num_measurements = 7;
  options.seed = 91;
  const Measurements m = generate_measurements(g, options);
  EXPECT_EQ(m.currents.data(), measurement_currents(30, 7, 91).data());
}

TEST(Measurements, VoltagesSolveTheLaplacian) {
  const graph::Graph g = graph::make_grid2d(7, 6).graph;
  MeasurementOptions options;
  options.num_measurements = 5;
  const Measurements m = generate_measurements(g, options);
  const la::CsrMatrix lap = g.laplacian();
  for (Index i = 0; i < 5; ++i) {
    const la::Vector lx = lap.multiply(m.voltages.col_vector(i));
    const la::Vector y = m.currents.col_vector(i);
    for (std::size_t j = 0; j < y.size(); ++j) EXPECT_NEAR(lx[j], y[j], 1e-9);
  }
}

TEST(Measurements, ThreadedGenerationMatchesSerialBitForBit) {
  // Currents are drawn serially from the seeded RNG; the voltage solves
  // are per-column and independent, so any thread count must reproduce
  // the serial measurements exactly.
  const graph::Graph g = graph::make_grid2d(7, 7).graph;
  MeasurementOptions serial_options;
  serial_options.num_measurements = 24;
  serial_options.num_threads = 1;
  const Measurements serial = generate_measurements(g, serial_options);
  for (const Index threads : {2, 4, 8}) {
    MeasurementOptions options = serial_options;
    options.num_threads = threads;
    const Measurements parallel = generate_measurements(g, options);
    EXPECT_EQ(parallel.currents.data(), serial.currents.data())
        << "threads=" << threads;
    EXPECT_EQ(parallel.voltages.data(), serial.voltages.data())
        << "threads=" << threads;
  }
}

TEST(Measurements, DeterministicPerSeed) {
  const graph::Graph g = graph::make_grid2d(5, 5).graph;
  MeasurementOptions options;
  options.num_measurements = 3;
  options.seed = 77;
  const Measurements a = generate_measurements(g, options);
  const Measurements b = generate_measurements(g, options);
  EXPECT_EQ(a.voltages.data(), b.voltages.data());
  options.seed = 78;
  const Measurements c = generate_measurements(g, options);
  EXPECT_NE(a.voltages.data(), c.voltages.data());
}

TEST(Measurements, NoiseMagnitudeMatchesZeta) {
  const graph::Graph g = graph::make_grid2d(10, 10).graph;
  MeasurementOptions options;
  options.num_measurements = 20;
  const Measurements clean = generate_measurements(g, options);
  la::DenseMatrix noisy = clean.voltages;
  const Real zeta = 0.25;
  add_noise(noisy, zeta, 5);
  for (Index i = 0; i < 20; ++i) {
    la::Vector diff = noisy.col_vector(i);
    const la::Vector orig = clean.voltages.col_vector(i);
    la::axpy(-1.0, orig, diff);
    // ‖x̃ − x‖ = ζ‖x‖ exactly (ε has unit norm).
    EXPECT_NEAR(la::norm2(diff), zeta * la::norm2(orig), 1e-10);
  }
}

TEST(Measurements, ZeroNoiseIsIdentity) {
  const graph::Graph g = graph::make_grid2d(4, 4).graph;
  const Measurements m = generate_measurements(g);
  la::DenseMatrix noisy = m.voltages;
  add_noise(noisy, 0.0, 1);
  EXPECT_EQ(noisy.data(), m.voltages.data());
}

TEST(Measurements, NegativeNoiseThrows) {
  la::DenseMatrix x(3, 2);
  EXPECT_THROW(add_noise(x, -0.1, 1), ContractViolation);
}

TEST(Measurements, SampleNodesSortedUniqueInRange) {
  const auto s = sample_nodes(100, 30, 9);
  EXPECT_EQ(s.size(), 30u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
  EXPECT_GE(s.front(), 0);
  EXPECT_LT(s.back(), 100);
}

TEST(Measurements, SampleNodesFullSubsetIsIdentityRange) {
  const auto s = sample_nodes(5, 5, 3);
  EXPECT_EQ(s, (std::vector<Index>{0, 1, 2, 3, 4}));
}

TEST(Measurements, TakeRowsExtractsSubmatrix) {
  la::DenseMatrix x(4, 2);
  for (Index i = 0; i < 4; ++i)
    for (Index j = 0; j < 2; ++j) x(i, j) = static_cast<Real>(10 * i + j);
  const la::DenseMatrix sub = take_rows(x, {1, 3});
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_DOUBLE_EQ(sub(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(sub(0, 1), 11.0);
  EXPECT_DOUBLE_EQ(sub(1, 0), 30.0);
  EXPECT_DOUBLE_EQ(sub(1, 1), 31.0);
}

TEST(Measurements, TakeRowsOutOfRangeThrows) {
  const la::DenseMatrix x(3, 1);
  EXPECT_THROW(take_rows(x, {5}), ContractViolation);
}

TEST(Measurements, Contracts) {
  const graph::Graph g = graph::make_grid2d(4, 4).graph;
  MeasurementOptions options;
  options.num_measurements = 0;
  EXPECT_THROW(generate_measurements(g, options), ContractViolation);
  EXPECT_THROW(sample_nodes(10, 0, 1), ContractViolation);
  EXPECT_THROW(sample_nodes(10, 11, 1), ContractViolation);
}

}  // namespace
}  // namespace sgl::measure
