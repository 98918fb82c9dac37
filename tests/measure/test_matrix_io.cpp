// Unit tests for dense MatrixMarket array I/O.
#include <gtest/gtest.h>

#include <fstream>

#include "common/rng.hpp"
#include "measure/matrix_io.hpp"

namespace sgl::measure {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(MatrixIo, RoundTripPreservesValues) {
  Rng rng(1);
  la::DenseMatrix m(7, 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 7; ++i) m(i, j) = rng.normal();

  const std::string path = temp_path("dense_roundtrip.mtx");
  write_dense_matrix_market(m, path);
  const la::DenseMatrix loaded = read_dense_matrix_market(path);
  ASSERT_EQ(loaded.rows(), 7);
  ASSERT_EQ(loaded.cols(), 4);
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 7; ++i) EXPECT_DOUBLE_EQ(loaded(i, j), m(i, j));
}

TEST(MatrixIo, ColumnMajorOrderOnDisk) {
  la::DenseMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 0) = 2.0;
  m(0, 1) = 3.0;
  m(1, 1) = 4.0;
  const std::string path = temp_path("dense_order.mtx");
  write_dense_matrix_market(m, path);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // banner
  std::getline(in, line);  // comment
  std::getline(in, line);  // size
  la::Vector values;
  Real v;
  while (in >> v) values.push_back(v);
  EXPECT_EQ(values, (la::Vector{1.0, 2.0, 3.0, 4.0}));
}

TEST(MatrixIo, RejectsCoordinateFormat) {
  const std::string path = temp_path("coord.mtx");
  std::ofstream out(path);
  out << "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0\n";
  out.close();
  EXPECT_THROW((void)read_dense_matrix_market(path), ContractViolation);
}

TEST(MatrixIo, RejectsTruncatedData) {
  const std::string path = temp_path("short.mtx");
  std::ofstream out(path);
  out << "%%MatrixMarket matrix array real general\n3 2\n1.0\n2.0\n";
  out.close();
  EXPECT_THROW((void)read_dense_matrix_market(path), ContractViolation);
}

/// what() of the ContractViolation reading `body` throws ("" if none).
std::string read_error(const std::string& name, const std::string& body) {
  const std::string path = temp_path(name);
  std::ofstream(path) << "%%MatrixMarket matrix array real general\n" << body;
  try {
    (void)read_dense_matrix_market(path);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(MatrixIo, NonFiniteAndTruncatedGetDistinctMessages) {
  // Values are column-major: the 4th value of a 3 × 2 file is (1, 2).
  const std::string nan = read_error("nan.mtx", "3 2\n1\n2\n3\nnan\n5\n6\n");
  EXPECT_NE(nan.find("non-finite value 'nan' at row 1, column 2"),
            std::string::npos) << nan;
  const std::string inf = read_error("inf.mtx", "3 2\n1\n-inf\n3\n4\n5\n6\n");
  EXPECT_NE(inf.find("non-finite value '-inf' at row 2, column 1"),
            std::string::npos) << inf;
  const std::string bad = read_error("bad.mtx", "3 2\n1\n2\n3\n4\n5x\n6\n");
  EXPECT_NE(bad.find("malformed value '5x' at row 2, column 2"),
            std::string::npos) << bad;
  const std::string truncated = read_error("trunc.mtx", "3 2\n1\n2\n");
  EXPECT_NE(truncated.find("truncated data (6 values expected, 2 read)"),
            std::string::npos) << truncated;
}

TEST(MatrixIo, MissingFileThrows) {
  EXPECT_THROW((void)read_dense_matrix_market(temp_path("nope.mtx")),
               ContractViolation);
}

}  // namespace
}  // namespace sgl::measure
