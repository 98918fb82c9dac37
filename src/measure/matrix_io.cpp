#include "measure/matrix_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/contracts.hpp"
#include "graph/matrix_market.hpp"

namespace sgl::measure {

la::DenseMatrix read_dense_matrix_market(const std::string& path) {
  std::ifstream in(path);
  SGL_EXPECTS(in.good(), "read_dense_matrix_market: cannot open '" + path + "'");

  std::string line;
  SGL_EXPECTS(static_cast<bool>(std::getline(in, line)),
              "read_dense_matrix_market: empty file");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  const auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    return s;
  };
  SGL_EXPECTS(banner == "%%MatrixMarket" && lower(object) == "matrix" &&
                  lower(format) == "array",
              "read_dense_matrix_market: expected an array-format file");
  SGL_EXPECTS(lower(field) == "real" || lower(field) == "integer",
              "read_dense_matrix_market: unsupported field");
  SGL_EXPECTS(lower(symmetry) == "general",
              "read_dense_matrix_market: only general symmetry supported");

  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  long rows = 0, cols = 0;
  size_line >> rows >> cols;
  SGL_EXPECTS(rows > 0 && cols > 0, "read_dense_matrix_market: bad size line");

  la::DenseMatrix m(static_cast<Index>(rows), static_cast<Index>(cols));
  std::string token;
  for (Index j = 0; j < m.cols(); ++j) {
    for (Index i = 0; i < m.rows(); ++i) {
      SGL_EXPECTS(static_cast<bool>(in >> token),
                  "read_dense_matrix_market: truncated data (" +
                      std::to_string(rows * cols) + " values expected, " +
                      std::to_string(j * rows + i) + " read)");
      m(i, j) = graph::parse_matrix_market_value(
          token, "read_dense_matrix_market", i + 1, j + 1);
    }
  }
  return m;
}

void write_dense_matrix_market(const la::DenseMatrix& m,
                               const std::string& path) {
  std::ofstream out(path);
  SGL_EXPECTS(out.good(),
              "write_dense_matrix_market: cannot open '" + path + "'");
  out << "%%MatrixMarket matrix array real general\n";
  out << "% measurement matrix exported by sgl\n";
  out << m.rows() << ' ' << m.cols() << '\n';
  out.precision(17);
  for (Index j = 0; j < m.cols(); ++j)
    for (Index i = 0; i < m.rows(); ++i) out << m(i, j) << '\n';
  SGL_ENSURES(out.good(), "write_dense_matrix_market: write failed");
}

}  // namespace sgl::measure
