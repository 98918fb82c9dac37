// Unit tests for MatrixMarket I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"

namespace sgl::graph {
namespace {

class MatrixMarketTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(MatrixMarketTest, ReadsGeneralRealCoordinate) {
  const std::string path = temp_path("general.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real general\n"
             "% comment\n"
             "3 3 3\n"
             "1 1 2.0\n"
             "2 3 -1.5\n"
             "3 1 4.0\n");
  const la::CsrMatrix m = read_matrix_market(path);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.5);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 4.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
}

TEST_F(MatrixMarketTest, SymmetricStorageIsExpanded) {
  const std::string path = temp_path("sym.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "2 2 2\n"
             "1 1 1.0\n"
             "2 1 -3.0\n");
  const la::CsrMatrix m = read_matrix_market(path);
  EXPECT_DOUBLE_EQ(m.at(0, 1), -3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -3.0);
}

TEST_F(MatrixMarketTest, PatternFileGetsUnitWeights) {
  const std::string path = temp_path("pattern.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "3 3 2\n"
             "2 1\n"
             "3 2\n");
  const Graph g = read_graph_matrix_market(
      path, MatrixInterpretation::kAdjacency);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge(0).weight, 1.0);
}

TEST_F(MatrixMarketTest, LaplacianInterpretationUsesNegativeOffdiagonals) {
  const std::string path = temp_path("lap.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real symmetric\n"
             "3 3 5\n"
             "1 1 3.0\n"
             "2 2 1.0\n"
             "3 3 2.0\n"
             "2 1 -1.0\n"
             "3 1 -2.0\n");
  const Graph g = read_graph_matrix_market(path);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.laplacian().at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(g.laplacian().at(0, 2), -2.0);
}

TEST_F(MatrixMarketTest, LaplacianRoundTrip) {
  const Graph original = make_grid2d(5, 4).graph;
  const std::string path = temp_path("roundtrip.mtx");
  write_laplacian_matrix_market(original, path);
  const Graph loaded = read_graph_matrix_market(path);
  ASSERT_EQ(loaded.num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  const la::CsrMatrix la = original.laplacian();
  const la::CsrMatrix lb = loaded.laplacian();
  for (Index i = 0; i < la.rows(); ++i)
    for (Index j = 0; j < la.cols(); ++j)
      EXPECT_NEAR(la.at(i, j), lb.at(i, j), 1e-12);
}

TEST_F(MatrixMarketTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market(temp_path("nonexistent.mtx")),
               ContractViolation);
}

TEST_F(MatrixMarketTest, BadBannerThrows) {
  const std::string path = temp_path("bad.mtx");
  write_file(path, "%%NotMatrixMarket nope\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, ArrayFormatRejected) {
  const std::string path = temp_path("array.mtx");
  write_file(path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, EntryOutOfRangeThrows) {
  const std::string path = temp_path("oob.mtx");
  write_file(path,
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(path), ContractViolation);
}

TEST_F(MatrixMarketTest, NonFiniteAndTruncatedGetDistinctMessages) {
  const auto error = [this](const std::string& name, const std::string& body) {
    const std::string path = temp_path(name);
    write_file(path, "%%MatrixMarket matrix coordinate real symmetric\n" + body);
    try {
      (void)read_matrix_market(path);
    } catch (const ContractViolation& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string nan = error("nan.mtx", "3 3 3\n1 1 2\n2 1 nan\n3 3 1\n");
  EXPECT_NE(nan.find("non-finite value 'nan' at row 2, column 1"),
            std::string::npos) << nan;
  const std::string inf = error("inf.mtx", "3 3 2\n1 1 2\n3 2 inf\n");
  EXPECT_NE(inf.find("non-finite value 'inf' at row 3, column 2"),
            std::string::npos) << inf;
  const std::string truncated = error("trunc.mtx", "3 3 3\n1 1 2\n2 1 -1\n");
  EXPECT_NE(truncated.find("truncated entry list (entry 3 of 3)"),
            std::string::npos) << truncated;
  const std::string index = error("index.mtx", "3 3 2\n1 1 2\nx 1 -1\n");
  EXPECT_NE(index.find("malformed entry (entry 2 of 2)"), std::string::npos)
      << index;
}

TEST_F(MatrixMarketTest, GraphFromMatrixRequiresSquare) {
  const la::CsrMatrix rect = la::CsrMatrix::from_triplets(2, 3, {{0, 0, 1.0}});
  EXPECT_THROW(graph_from_matrix(rect, MatrixInterpretation::kAdjacency),
               ContractViolation);
}

}  // namespace
}  // namespace sgl::graph
