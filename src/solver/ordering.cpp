#include "solver/ordering.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <queue>

#include "common/contracts.hpp"
#include "common/enum_names.hpp"

namespace sgl::solver {

namespace {

/// Pattern adjacency (diagonal stripped) of a square symmetric matrix.
struct Pattern {
  std::vector<Index> row_ptr;
  std::vector<Index> col;

  [[nodiscard]] Index n() const noexcept { return to_index(row_ptr.size()) - 1; }
  [[nodiscard]] Index degree(Index i) const {
    return row_ptr[static_cast<std::size_t>(i) + 1] -
           row_ptr[static_cast<std::size_t>(i)];
  }
};

Pattern strip_diagonal(const la::CsrMatrix& a) {
  SGL_EXPECTS(a.rows() == a.cols(), "ordering: matrix must be square");
  Pattern p;
  const Index n = a.rows();
  p.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  p.col.reserve(a.values().size());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  for (Index i = 0; i < n; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (j != i) p.col.push_back(j);
    }
    p.row_ptr[static_cast<std::size_t>(i) + 1] = to_index(p.col.size());
  }
  return p;
}

/// BFS returning nodes of one component in visit order, starting from the
/// lowest-degree endpoint of a pseudo-peripheral search.
Index pseudo_peripheral(const Pattern& p, Index start,
                        std::vector<Index>& dist_scratch) {
  Index current = start;
  Index best_ecc = -1;
  std::vector<Index> queue;
  for (int round = 0; round < 6; ++round) {
    std::fill(dist_scratch.begin(), dist_scratch.end(), kInvalidIndex);
    queue.clear();
    queue.push_back(current);
    dist_scratch[static_cast<std::size_t>(current)] = 0;
    Index far_node = current;
    Index far_dist = 0;
    Index far_deg = p.degree(current);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Index u = queue[head];
      for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
           k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
        const Index v = p.col[static_cast<std::size_t>(k)];
        if (dist_scratch[static_cast<std::size_t>(v)] != kInvalidIndex) continue;
        dist_scratch[static_cast<std::size_t>(v)] =
            dist_scratch[static_cast<std::size_t>(u)] + 1;
        queue.push_back(v);
        const Index dv = dist_scratch[static_cast<std::size_t>(v)];
        const Index degv = p.degree(v);
        if (dv > far_dist || (dv == far_dist && degv < far_deg)) {
          far_dist = dv;
          far_node = v;
          far_deg = degv;
        }
      }
    }
    if (far_dist <= best_ecc) break;
    best_ecc = far_dist;
    current = far_node;
  }
  return current;
}

}  // namespace

std::vector<Index> natural_ordering(Index n) {
  std::vector<Index> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), Index{0});
  return perm;
}

std::vector<Index> rcm_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  const Index n = p.n();
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<Index> dist(static_cast<std::size_t>(n));
  std::vector<Index> nbrs;

  for (Index seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    const Index root = pseudo_peripheral(p, seed, dist);
    // Cuthill–McKee BFS: neighbors appended in increasing-degree order.
    std::vector<Index> queue{root};
    visited[static_cast<std::size_t>(root)] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Index u = queue[head];
      perm.push_back(u);
      nbrs.clear();
      for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
           k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
        const Index v = p.col[static_cast<std::size_t>(k)];
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = true;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&p](Index x, Index y) {
        return p.degree(x) < p.degree(y);
      });
      for (const Index v : nbrs) queue.push_back(v);
    }
  }
  std::reverse(perm.begin(), perm.end());
  return perm;
}

std::vector<Index> minimum_degree_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  const Index n = p.n();

  // Evolving elimination-graph adjacency as sorted vectors.
  std::vector<std::vector<Index>> adj(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    adj[static_cast<std::size_t>(i)].assign(
        p.col.begin() + p.row_ptr[static_cast<std::size_t>(i)],
        p.col.begin() + p.row_ptr[static_cast<std::size_t>(i) + 1]);
    std::sort(adj[static_cast<std::size_t>(i)].begin(),
              adj[static_cast<std::size_t>(i)].end());
  }

  using Entry = std::pair<Index, Index>;  // (degree, node), lazy heap
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<bool> eliminated(static_cast<std::size_t>(n), false);
  for (Index i = 0; i < n; ++i)
    heap.emplace(to_index(adj[static_cast<std::size_t>(i)].size()), i);

  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  std::vector<Index> merged;
  while (!heap.empty()) {
    const auto [deg, v] = heap.top();
    heap.pop();
    if (eliminated[static_cast<std::size_t>(v)]) continue;
    if (deg != to_index(adj[static_cast<std::size_t>(v)].size())) continue;

    eliminated[static_cast<std::size_t>(v)] = true;
    perm.push_back(v);
    auto& nv = adj[static_cast<std::size_t>(v)];
    // Connect the neighborhood of v into a clique; each neighbor u gets
    // (N(v) ∪ N(u)) \ {u, v, eliminated}.
    for (const Index u : nv) {
      auto& nu = adj[static_cast<std::size_t>(u)];
      merged.clear();
      merged.reserve(nu.size() + nv.size());
      std::set_union(nu.begin(), nu.end(), nv.begin(), nv.end(),
                     std::back_inserter(merged));
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&](Index x) {
                                    return x == u || x == v ||
                                           eliminated[static_cast<std::size_t>(x)];
                                  }),
                   merged.end());
      nu.swap(merged);
      heap.emplace(to_index(nu.size()), u);
    }
    nv.clear();
    nv.shrink_to_fit();
  }
  SGL_ENSURES(to_index(perm.size()) == n,
              "minimum_degree_ordering: incomplete permutation");
  return perm;
}

namespace {

/// Orders the node set `nodes` (a connected or disconnected induced
/// subgraph) by recursive level-set dissection, appending to `out`.
/// `next_tag` hands out globally unique membership tags so stale tags from
/// already-processed subtrees can never alias the current subset.
void dissect(const Pattern& p, std::vector<Index>& nodes,
             std::vector<Index>& membership, Index& next_tag,
             std::vector<Index>& out) {
  constexpr Index kLeafSize = 48;
  if (to_index(nodes.size()) <= kLeafSize) {
    // Leaf: small enough that elimination order barely matters.
    std::sort(nodes.begin(), nodes.end());
    out.insert(out.end(), nodes.begin(), nodes.end());
    return;
  }

  const Index tag = next_tag++;
  for (const Index v : nodes) membership[static_cast<std::size_t>(v)] = tag;

  // BFS from an arbitrary member; levels define the separator.
  // Local indices come from binary search over the sorted node list.
  std::vector<Index> dist(nodes.size(), kInvalidIndex);
  std::sort(nodes.begin(), nodes.end());
  const auto local_index = [&nodes](Index v) {
    return to_index(static_cast<std::size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), v) - nodes.begin()));
  };

  std::vector<Index> queue{nodes.front()};
  dist[0] = 0;
  Index max_level = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Index u = queue[head];
    const Index lu = local_index(u);
    for (Index k = p.row_ptr[static_cast<std::size_t>(u)];
         k < p.row_ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const Index v = p.col[static_cast<std::size_t>(k)];
      if (membership[static_cast<std::size_t>(v)] != tag) continue;
      const Index lv = local_index(v);
      if (dist[static_cast<std::size_t>(lv)] != kInvalidIndex) continue;
      dist[static_cast<std::size_t>(lv)] = dist[static_cast<std::size_t>(lu)] + 1;
      max_level = std::max(max_level, dist[static_cast<std::size_t>(lv)]);
      queue.push_back(v);
    }
  }

  // Disconnected subset: nodes unreached by the BFS form their own part.
  // Split into (reached, unreached) and recurse on each.
  if (to_index(queue.size()) < to_index(nodes.size())) {
    std::vector<Index> reached, unreached;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (dist[i] == kInvalidIndex) unreached.push_back(nodes[i]);
      else reached.push_back(nodes[i]);
    }
    dissect(p, unreached, membership, next_tag, out);
    dissect(p, reached, membership, next_tag, out);
    return;
  }

  if (max_level < 2) {
    // Graph too tight to bisect by levels (e.g. near-clique): fall back to
    // degree order to guarantee progress.
    out.insert(out.end(), nodes.begin(), nodes.end());
    return;
  }

  // Median level by cumulative counts.
  std::vector<Index> level_count(static_cast<std::size_t>(max_level) + 1, 0);
  for (const Index d : dist) ++level_count[static_cast<std::size_t>(d)];
  Index half = to_index(nodes.size()) / 2;
  Index sep_level = 0;
  Index acc = 0;
  for (Index l = 0; l <= max_level; ++l) {
    acc += level_count[static_cast<std::size_t>(l)];
    if (acc >= half) {
      sep_level = l;
      break;
    }
  }
  // Keep the separator strictly interior so both sides are nonempty.
  sep_level = std::clamp(sep_level, Index{1}, max_level - 1);

  std::vector<Index> left, right, sep;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (dist[i] < sep_level) left.push_back(nodes[i]);
    else if (dist[i] == sep_level) sep.push_back(nodes[i]);
    else right.push_back(nodes[i]);
  }
  dissect(p, left, membership, next_tag, out);
  dissect(p, right, membership, next_tag, out);
  // Separator is ordered last (eliminated last = appears last in perm).
  out.insert(out.end(), sep.begin(), sep.end());
}

}  // namespace

std::vector<Index> nested_dissection_ordering(const la::CsrMatrix& a) {
  const Pattern p = strip_diagonal(a);
  const Index n = p.n();
  std::vector<Index> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), Index{0});
  std::vector<Index> membership(static_cast<std::size_t>(n), -1);
  std::vector<Index> perm;
  perm.reserve(static_cast<std::size_t>(n));
  Index next_tag = 0;
  dissect(p, nodes, membership, next_tag, perm);
  SGL_ENSURES(to_index(perm.size()) == n,
              "nested_dissection_ordering: incomplete permutation");
  return perm;
}

namespace {
constexpr std::array<common::EnumName<OrderingMethod>, 5> kOrderingNames{{
    {OrderingMethod::kNatural, "natural"},
    {OrderingMethod::kRcm, "rcm"},
    {OrderingMethod::kMinimumDegree, "amd"},
    {OrderingMethod::kNestedDissection, "nd"},
    {OrderingMethod::kAuto, "auto"},
}};
}  // namespace

const char* ordering_method_name(OrderingMethod method) {
  return common::enum_name(kOrderingNames, method);
}

std::optional<OrderingMethod> parse_ordering_method(std::string_view name) {
  return common::parse_enum(kOrderingNames, name);
}

std::string ordering_method_name_list() {
  return common::enum_name_list(kOrderingNames);
}

std::vector<Index> compute_ordering(const la::CsrMatrix& a,
                                    OrderingMethod method) {
  switch (method) {
    case OrderingMethod::kNatural:
      return natural_ordering(a.rows());
    case OrderingMethod::kRcm:
      return rcm_ordering(a);
    case OrderingMethod::kMinimumDegree:
      return minimum_degree_ordering(a);
    case OrderingMethod::kNestedDissection:
      return nested_dissection_ordering(a);
    case OrderingMethod::kAuto: {
      const Index n = a.rows();
      const Real avg_row = n > 0 ? static_cast<Real>(a.nnz()) / n : 0.0;
      return avg_row <= kMinimumDegreeMaxAvgRow ? minimum_degree_ordering(a)
                                                : nested_dissection_ordering(a);
    }
  }
  SGL_EXPECTS(false, "compute_ordering: unknown method");
  return {};
}

std::vector<Index> invert_permutation(const std::vector<Index>& perm) {
  std::vector<Index> inv(perm.size(), kInvalidIndex);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    SGL_EXPECTS(perm[i] >= 0 && perm[i] < to_index(perm.size()),
                "invert_permutation: entry out of range");
    SGL_EXPECTS(inv[static_cast<std::size_t>(perm[i])] == kInvalidIndex,
                "invert_permutation: not a permutation");
    inv[static_cast<std::size_t>(perm[i])] = to_index(i);
  }
  return inv;
}

la::CsrMatrix permute_symmetric(const la::CsrMatrix& a,
                                const std::vector<Index>& perm) {
  SGL_EXPECTS(a.rows() == a.cols(), "permute_symmetric: matrix must be square");
  SGL_EXPECTS(to_index(perm.size()) == a.rows(),
              "permute_symmetric: permutation size mismatch");
  const std::vector<Index> inv = invert_permutation(perm);
  std::vector<la::Triplet> triplets;
  triplets.reserve(a.values().size());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vv = a.values();
  for (Index i = 0; i < a.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      triplets.push_back({inv[static_cast<std::size_t>(i)],
                          inv[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])],
                          vv[static_cast<std::size_t>(k)]});
  return la::CsrMatrix::from_triplets(a.rows(), a.cols(), triplets);
}

}  // namespace sgl::solver
