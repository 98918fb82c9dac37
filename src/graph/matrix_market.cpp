#include "graph/matrix_market.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace sgl::graph {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string position(long row, long col) {
  return "row " + std::to_string(row) + ", column " + std::to_string(col);
}

}  // namespace

Real parse_matrix_market_value(const std::string& token, const char* reader,
                               long row, long col) {
  char* end = nullptr;
  const Real v = std::strtod(token.c_str(), &end);
  SGL_EXPECTS(!token.empty() && end == token.c_str() + token.size(),
              std::string(reader) + ": malformed value '" + token + "' at " +
                  position(row, col));
  SGL_EXPECTS(std::isfinite(v), std::string(reader) + ": non-finite value '" +
                                    token + "' at " + position(row, col));
  return v;
}

la::CsrMatrix read_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SGL_EXPECTS(in.good(), "read_matrix_market: cannot open '" + path + "'");

  std::string line;
  SGL_EXPECTS(static_cast<bool>(std::getline(in, line)),
              "read_matrix_market: empty file");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  SGL_EXPECTS(banner == "%%MatrixMarket", "read_matrix_market: bad banner");
  SGL_EXPECTS(lower(object) == "matrix" && lower(format) == "coordinate",
              "read_matrix_market: only coordinate matrices are supported");
  const std::string f = lower(field);
  SGL_EXPECTS(f == "real" || f == "integer" || f == "pattern",
              "read_matrix_market: unsupported field type '" + field + "'");
  const std::string sym = lower(symmetry);
  SGL_EXPECTS(sym == "general" || sym == "symmetric",
              "read_matrix_market: unsupported symmetry '" + symmetry + "'");
  const bool pattern = (f == "pattern");
  const bool symmetric = (sym == "symmetric");

  // Skip comments / blank lines up to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long rows = 0, cols = 0, nnz = 0;
  size_line >> rows >> cols >> nnz;
  SGL_EXPECTS(rows > 0 && cols > 0 && nnz >= 0,
              "read_matrix_market: bad size line");

  std::vector<la::Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(nnz) * (symmetric ? 2 : 1));
  for (long k = 0; k < nnz; ++k) {
    long i = 0, j = 0;
    std::string token;
    in >> i >> j;
    if (!pattern) in >> token;
    SGL_EXPECTS(!in.fail(),
                std::string(in.eof() ? "read_matrix_market: truncated entry list"
                                     : "read_matrix_market: malformed entry") +
                    " (entry " + std::to_string(k + 1) + " of " +
                    std::to_string(nnz) + ")");
    SGL_EXPECTS(i >= 1 && i <= rows && j >= 1 && j <= cols,
                "read_matrix_market: entry out of range");
    const Real v = pattern ? 1.0
                           : parse_matrix_market_value(
                                 token, "read_matrix_market", i, j);
    triplets.push_back({static_cast<Index>(i - 1), static_cast<Index>(j - 1), v});
    if (symmetric && i != j)
      triplets.push_back({static_cast<Index>(j - 1), static_cast<Index>(i - 1), v});
  }
  return la::CsrMatrix::from_triplets(static_cast<Index>(rows),
                                      static_cast<Index>(cols), triplets);
}

Graph graph_from_matrix(const la::CsrMatrix& matrix,
                        MatrixInterpretation interpretation) {
  SGL_EXPECTS(matrix.rows() == matrix.cols(),
              "graph_from_matrix: matrix must be square");
  const Index n = matrix.rows();
  // Deduplicate (i, j) / (j, i): keep the canonical i < j pair, averaging
  // over however many directed entries the file stored (1 for one-triangle
  // general files, 2 for expanded symmetric storage).
  std::map<std::pair<Index, Index>, std::pair<Real, int>> weights;
  const auto& rp = matrix.row_ptr();
  const auto& ci = matrix.col_idx();
  const auto& vv = matrix.values();
  for (Index i = 0; i < n; ++i) {
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index j = ci[static_cast<std::size_t>(k)];
      if (i == j) continue;
      const Real a = vv[static_cast<std::size_t>(k)];
      Real w = 0.0;
      if (interpretation == MatrixInterpretation::kAdjacency) {
        w = std::abs(a);
      } else {
        if (a >= 0.0) continue;  // Laplacian off-diagonals are negative
        w = -a;
      }
      if (w <= 0.0) continue;
      const auto key = std::minmax(i, j);
      auto& slot = weights[{key.first, key.second}];
      slot.first += w;
      slot.second += 1;
    }
  }
  Graph g(n);
  for (const auto& [key, acc] : weights) {
    g.add_edge(key.first, key.second, acc.first / acc.second);
  }
  return g;
}

Graph read_graph_matrix_market(const std::string& path,
                               MatrixInterpretation interpretation) {
  return graph_from_matrix(read_matrix_market(path), interpretation);
}

void write_laplacian_matrix_market(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  SGL_EXPECTS(out.good(),
              "write_laplacian_matrix_market: cannot open '" + path + "'");
  const la::CsrMatrix lap = g.laplacian();
  const auto& rp = lap.row_ptr();
  const auto& ci = lap.col_idx();
  const auto& vv = lap.values();
  long nnz_lower = 0;
  for (Index i = 0; i < lap.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] <= i) ++nnz_lower;

  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << "% graph Laplacian exported by sgl\n";
  out << lap.rows() << ' ' << lap.cols() << ' ' << nnz_lower << '\n';
  out.precision(17);
  for (Index i = 0; i < lap.rows(); ++i)
    for (Index k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k)
      if (ci[static_cast<std::size_t>(k)] <= i)
        out << (i + 1) << ' ' << (ci[static_cast<std::size_t>(k)] + 1) << ' '
            << vv[static_cast<std::size_t>(k)] << '\n';
  SGL_ENSURES(out.good(), "write_laplacian_matrix_market: write failed");
}

}  // namespace sgl::graph
