// Unit tests for fill-reducing orderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "solver/ordering.hpp"

namespace sgl::solver {
namespace {

bool is_permutation_of_n(const std::vector<Index>& p, Index n) {
  if (to_index(p.size()) != n) return false;
  std::set<Index> s(p.begin(), p.end());
  return to_index(s.size()) == n && *s.begin() == 0 && *s.rbegin() == n - 1;
}

TEST(Ordering, MethodNamesRoundTrip) {
  for (const OrderingMethod m :
       {OrderingMethod::kNatural, OrderingMethod::kRcm,
        OrderingMethod::kMinimumDegree, OrderingMethod::kNestedDissection,
        OrderingMethod::kAuto}) {
    const auto parsed = parse_ordering_method(ordering_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_ordering_method("metis").has_value());
  EXPECT_FALSE(parse_ordering_method("").has_value());
  EXPECT_FALSE(parse_ordering_method("AMD").has_value());
}

TEST(Ordering, NaturalIsIdentity) {
  const auto p = natural_ordering(4);
  EXPECT_EQ(p, (std::vector<Index>{0, 1, 2, 3}));
}

TEST(Ordering, InvertPermutation) {
  const std::vector<Index> p{2, 0, 1};
  const auto inv = invert_permutation(p);
  EXPECT_EQ(inv, (std::vector<Index>{1, 2, 0}));
  EXPECT_THROW(invert_permutation({0, 0}), ContractViolation);
  EXPECT_THROW(invert_permutation({0, 5}), ContractViolation);
}

TEST(Ordering, PermuteSymmetricMatchesDirectIndexing) {
  const graph::Graph g = graph::make_grid2d(4, 4).graph;
  const la::CsrMatrix a = g.laplacian();
  const auto perm = rcm_ordering(a);
  const la::CsrMatrix pa = permute_symmetric(a, perm);
  for (Index i = 0; i < a.rows(); ++i)
    for (Index j = 0; j < a.cols(); ++j)
      EXPECT_DOUBLE_EQ(pa.at(i, j),
                       a.at(perm[static_cast<std::size_t>(i)],
                            perm[static_cast<std::size_t>(j)]));
}

TEST(Ordering, RcmReducesGridBandwidth) {
  const graph::Graph g = graph::make_grid2d(12, 12).graph;
  const la::CsrMatrix a = g.laplacian();
  const auto bandwidth = [&a](const std::vector<Index>& perm) {
    const auto inv = invert_permutation(perm);
    Index bw = 0;
    const la::CsrMatrix pa = permute_symmetric(a, perm);
    for (Index i = 0; i < pa.rows(); ++i)
      for (Index k = pa.row_ptr()[static_cast<std::size_t>(i)];
           k < pa.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        bw = std::max(bw, std::abs(i - pa.col_idx()[static_cast<std::size_t>(k)]));
    (void)inv;
    return bw;
  };
  // Natural order of a y-major grid has bandwidth nx = 12; RCM should not
  // be worse, and is typically near the grid width too — compare against a
  // deliberately bad random ordering instead.
  std::vector<Index> bad = natural_ordering(a.rows());
  std::reverse(bad.begin(), bad.end());
  std::swap(bad[0], bad[70]);
  EXPECT_LE(bandwidth(rcm_ordering(a)), bandwidth(bad));
}

class OrderingMethodSweep
    : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnMeshes) {
  const auto method = GetParam();
  for (const Index size : {2, 5, 9}) {
    const graph::Graph g = graph::make_grid2d(size, size).graph;
    const la::CsrMatrix a = g.laplacian();
    EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, method), a.rows()))
        << "size " << size;
  }
}

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnDisconnected) {
  graph::Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, GetParam()), a.rows()));
}

TEST_P(OrderingMethodSweep, ProducesValidPermutationOnDenseBlock) {
  const graph::Graph g = graph::make_complete(20);
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(compute_ordering(a, GetParam()), 20));
}

INSTANTIATE_TEST_SUITE_P(Methods, OrderingMethodSweep,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kRcm,
                                           OrderingMethod::kMinimumDegree,
                                           OrderingMethod::kNestedDissection,
                                           OrderingMethod::kAuto));

TEST(Ordering, AutoPicksNestedDissectionForMeshes) {
  // 5 nonzeros per row: nested dissection, at every mesh size.
  const la::CsrMatrix a =
      graph::make_grid2d(64, 64, /*periodic=*/true).graph.laplacian();
  EXPECT_EQ(compute_ordering(a, OrderingMethod::kAuto),
            nested_dissection_ordering(a));
}

TEST(Ordering, AutoPicksMinimumDegreeForTreePlusFewEdges) {
  // A spanning tree plus a few extra edges — the learned-graph shape, about
  // 3 nonzeros per row.
  graph::Graph g = graph::make_path(3000);
  for (Index i = 0; i + 500 < 3000; i += 500) g.add_edge(i, i + 500);
  const la::CsrMatrix a = g.laplacian();
  ASSERT_LE(static_cast<Real>(a.nnz()) / static_cast<Real>(a.rows()),
            kMinimumDegreeMaxAvgRow);
  EXPECT_EQ(compute_ordering(a, OrderingMethod::kAuto),
            minimum_degree_ordering(a));
}

TEST(Ordering, NestedDissectionValidOnLargerMesh) {
  const graph::Graph g = graph::make_grid2d(40, 37).graph;
  const la::CsrMatrix a = g.laplacian();
  EXPECT_TRUE(is_permutation_of_n(nested_dissection_ordering(a), a.rows()));
}

TEST(Ordering, MinimumDegreeStartsWithLowestDegreeNode) {
  const graph::Graph g = graph::make_star(6);
  const auto p = minimum_degree_ordering(g.laplacian());
  // Leaves (degree 1) are eliminated before the hub; once only one leaf
  // remains the hub's degree drops to 1 as well, so the hub can appear in
  // either of the final two positions.
  EXPECT_NE(p[0], 0);
  EXPECT_TRUE(p.back() == 0 || p[p.size() - 2] == 0);
}

}  // namespace
}  // namespace sgl::solver
