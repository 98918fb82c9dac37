#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/parallel.hpp"

namespace sgl::la {

CsrMatrix CsrMatrix::from_triplets(Index rows, Index cols,
                                   const std::vector<Triplet>& triplets) {
  SGL_EXPECTS(rows >= 0 && cols >= 0, "from_triplets: negative dimension");
  for (const auto& t : triplets) {
    SGL_EXPECTS(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                "from_triplets: triplet out of range");
  }

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);

  // Counting sort by row, then sort/dedup each row by column.
  for (const auto& t : triplets) ++m.row_ptr_[static_cast<std::size_t>(t.row) + 1];
  for (std::size_t i = 1; i < m.row_ptr_.size(); ++i)
    m.row_ptr_[i] += m.row_ptr_[i - 1];

  std::vector<Index> cursor(m.row_ptr_.begin(), m.row_ptr_.end() - 1);
  std::vector<Index> cols_tmp(triplets.size());
  std::vector<Real> vals_tmp(triplets.size());
  for (const auto& t : triplets) {
    const Index pos = cursor[static_cast<std::size_t>(t.row)]++;
    cols_tmp[static_cast<std::size_t>(pos)] = t.col;
    vals_tmp[static_cast<std::size_t>(pos)] = t.value;
  }

  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::vector<Index> perm;
  std::vector<Index> new_row_ptr(static_cast<std::size_t>(rows) + 1, 0);
  for (Index r = 0; r < rows; ++r) {
    const Index lo = m.row_ptr_[static_cast<std::size_t>(r)];
    const Index hi = m.row_ptr_[static_cast<std::size_t>(r) + 1];
    perm.resize(static_cast<std::size_t>(hi - lo));
    std::iota(perm.begin(), perm.end(), lo);
    std::sort(perm.begin(), perm.end(), [&](Index a, Index b) {
      return cols_tmp[static_cast<std::size_t>(a)] <
             cols_tmp[static_cast<std::size_t>(b)];
    });
    for (std::size_t k = 0; k < perm.size(); ++k) {
      const Index src = perm[k];
      const Index c = cols_tmp[static_cast<std::size_t>(src)];
      const Real v = vals_tmp[static_cast<std::size_t>(src)];
      if (!m.col_idx_.empty() &&
          to_index(m.col_idx_.size()) > new_row_ptr[static_cast<std::size_t>(r)] &&
          m.col_idx_.back() == c) {
        m.values_.back() += v;  // duplicate stamp: accumulate
      } else {
        m.col_idx_.push_back(c);
        m.values_.push_back(v);
      }
    }
    new_row_ptr[static_cast<std::size_t>(r) + 1] = to_index(m.col_idx_.size());
  }
  m.row_ptr_ = std::move(new_row_ptr);
  return m;
}

CsrMatrix CsrMatrix::identity(Index n) {
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return from_triplets(n, n, t);
}

Real CsrMatrix::at(Index i, Index j) const {
  SGL_EXPECTS(i >= 0 && i < rows_ && j >= 0 && j < cols_, "at: out of range");
  const auto begin = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(i)];
  const auto end = col_idx_.begin() + row_ptr_[static_cast<std::size_t>(i) + 1];
  const auto it = std::lower_bound(begin, end, j);
  if (it == end || *it != j) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

using detail::kSpmvTransposeChunks;
using detail::kSpmvTransposeMinChunkRows;

void CsrMatrix::multiply(const Vector& x, Vector& y, Index num_threads) const {
  SGL_EXPECTS(to_index(x.size()) == cols_, "multiply: size mismatch");
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  const Index threads = parallel::threads_for_work(num_threads, nnz());
  parallel::parallel_for_slots(
      0, rows_, threads, [&](Index lo, Index hi, Index /*slot*/) {
        for (Index i = lo; i < hi; ++i) {
          Real acc = 0.0;
          for (Index k = row_ptr_[static_cast<std::size_t>(i)];
               k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
            acc += values_[static_cast<std::size_t>(k)] *
                   x[static_cast<std::size_t>(
                       col_idx_[static_cast<std::size_t>(k)])];
          }
          y[static_cast<std::size_t>(i)] = acc;
        }
      });
}

Vector CsrMatrix::multiply_transposed(const Vector& x, Index num_threads) const {
  SGL_EXPECTS(to_index(x.size()) == rows_, "multiply_transposed: size mismatch");
  Vector y(static_cast<std::size_t>(cols_), 0.0);
  const auto scatter_rows = [&](Index lo, Index hi, Vector& out) {
    for (Index i = lo; i < hi; ++i) {
      const Real xi = x[static_cast<std::size_t>(i)];
      if (xi == 0.0) continue;
      for (Index k = row_ptr_[static_cast<std::size_t>(i)];
           k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
        out[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])] +=
            values_[static_cast<std::size_t>(k)] * xi;
      }
    }
  };

  if (rows_ < kSpmvTransposeChunks * kSpmvTransposeMinChunkRows) {
    scatter_rows(0, rows_, y);
    return y;
  }
  // Chunked scatter: each fixed row chunk scatters into its own partial,
  // partials are summed in chunk order. Within each output entry the
  // additions happen in global row order, matching the serial scatter's
  // per-entry order chunk by chunk.
  const Index chunk = (rows_ + kSpmvTransposeChunks - 1) / kSpmvTransposeChunks;
  const Index num_chunks = (rows_ + chunk - 1) / chunk;
  std::vector<Vector> partial(static_cast<std::size_t>(num_chunks));
  const Index threads = parallel::threads_for_work(num_threads, nnz());
  parallel::parallel_for(0, num_chunks, threads, [&](Index c) {
    Vector& local = partial[static_cast<std::size_t>(c)];
    local.assign(static_cast<std::size_t>(cols_), 0.0);
    const Index lo = c * chunk;
    scatter_rows(lo, std::min(rows_, lo + chunk), local);
  });
  for (Index c = 0; c < num_chunks; ++c) {
    const Vector& local = partial[static_cast<std::size_t>(c)];
    for (std::size_t j = 0; j < y.size(); ++j) y[j] += local[j];
  }
  return y;
}

namespace detail {

void spmm_transposed_row_major(const CsrMatrix& a, const Real* x, Real* y,
                               Index b, Index num_threads) {
  const Index rows = a.rows();
  const Index cols = a.cols();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  const std::size_t sb = static_cast<std::size_t>(b);
  std::fill(y, y + static_cast<std::size_t>(cols) * sb, 0.0);

  // b-wide mirror of CsrMatrix::multiply_transposed's scatter_rows: rows
  // ascending, per-(row, column) zero skip, additions per output entry in
  // global row order.
  const auto scatter_rows = [&](Index lo, Index hi, Real* out) {
    for (Index i = lo; i < hi; ++i) {
      const Real* xi = x + static_cast<std::size_t>(i) * sb;
      for (Index k = row_ptr[static_cast<std::size_t>(i)];
           k < row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
        const Real v = values[static_cast<std::size_t>(k)];
        Real* oc =
            out + static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]) * sb;
        for (Index c = 0; c < b; ++c) {
          const Real xic = xi[static_cast<std::size_t>(c)];
          if (xic == 0.0) continue;
          oc[static_cast<std::size_t>(c)] += v * xic;
        }
      }
    }
  };

  if (rows < kSpmvTransposeChunks * kSpmvTransposeMinChunkRows) {
    scatter_rows(0, rows, y);
    return;
  }
  // Chunked scatter, combined in fixed chunk order — the same chunk
  // boundaries as the scalar path, so block ≡ scalar per column bitwise.
  const Index chunk = (rows + kSpmvTransposeChunks - 1) / kSpmvTransposeChunks;
  const Index num_chunks = (rows + chunk - 1) / chunk;
  std::vector<std::vector<Real>> partial(static_cast<std::size_t>(num_chunks));
  const Index threads = parallel::threads_for_work(
      num_threads, static_cast<std::int64_t>(a.nnz()) * b);
  parallel::parallel_for(0, num_chunks, threads, [&](Index ck) {
    std::vector<Real>& local = partial[static_cast<std::size_t>(ck)];
    local.assign(static_cast<std::size_t>(cols) * sb, 0.0);
    const Index lo = ck * chunk;
    scatter_rows(lo, std::min(rows, lo + chunk), local.data());
  });
  for (Index ck = 0; ck < num_chunks; ++ck) {
    const std::vector<Real>& local = partial[static_cast<std::size_t>(ck)];
    for (std::size_t e = 0; e < local.size(); ++e) y[e] += local[e];
  }
}

}  // namespace detail

Real CsrMatrix::quadratic_form(const Vector& x) const {
  SGL_EXPECTS(rows_ == cols_, "quadratic_form: matrix must be square");
  SGL_EXPECTS(to_index(x.size()) == cols_, "quadratic_form: size mismatch");
  Real acc = 0.0;
  for (Index i = 0; i < rows_; ++i) {
    Real row_acc = 0.0;
    for (Index k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      row_acc += values_[static_cast<std::size_t>(k)] *
                 x[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    acc += x[static_cast<std::size_t>(i)] * row_acc;
  }
  return acc;
}

Vector CsrMatrix::diagonal() const {
  const Index n = std::min(rows_, cols_);
  Vector d(static_cast<std::size_t>(n), 0.0);
  for (Index i = 0; i < n; ++i) d[static_cast<std::size_t>(i)] = at(i, i);
  return d;
}

CsrMatrix CsrMatrix::transposed() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(static_cast<std::size_t>(cols_) + 1, 0);
  for (const Index c : col_idx_) ++t.row_ptr_[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 1; i < t.row_ptr_.size(); ++i)
    t.row_ptr_[i] += t.row_ptr_[i - 1];

  t.col_idx_.resize(col_idx_.size());
  t.values_.resize(values_.size());
  std::vector<Index> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (Index i = 0; i < rows_; ++i) {
    for (Index k = row_ptr_[static_cast<std::size_t>(i)];
         k < row_ptr_[static_cast<std::size_t>(i) + 1]; ++k) {
      const Index c = col_idx_[static_cast<std::size_t>(k)];
      const Index pos = cursor[static_cast<std::size_t>(c)]++;
      t.col_idx_[static_cast<std::size_t>(pos)] = i;
      t.values_[static_cast<std::size_t>(pos)] = values_[static_cast<std::size_t>(k)];
    }
  }
  // Rows of the transpose are produced in increasing original-row order,
  // so column indices are already sorted.
  return t;
}

bool CsrMatrix::is_symmetric(Real tol) const {
  if (rows_ != cols_) return false;
  const CsrMatrix t = transposed();
  if (t.col_idx_.size() != col_idx_.size()) return false;
  for (Index i = 0; i < rows_; ++i) {
    const Index lo = row_ptr_[static_cast<std::size_t>(i)];
    const Index hi = row_ptr_[static_cast<std::size_t>(i) + 1];
    if (t.row_ptr_[static_cast<std::size_t>(i)] != lo ||
        t.row_ptr_[static_cast<std::size_t>(i) + 1] != hi)
      return false;
    for (Index k = lo; k < hi; ++k) {
      if (t.col_idx_[static_cast<std::size_t>(k)] !=
          col_idx_[static_cast<std::size_t>(k)])
        return false;
      if (std::abs(t.values_[static_cast<std::size_t>(k)] -
                   values_[static_cast<std::size_t>(k)]) > tol)
        return false;
    }
  }
  return true;
}

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  SGL_EXPECTS(a.cols() == b.rows(), "spgemm: inner dimension mismatch");
  CsrMatrix c;
  c.rows_ = a.rows();
  c.cols_ = b.cols();
  c.row_ptr_.assign(static_cast<std::size_t>(c.rows_) + 1, 0);

  // Row-wise gather with a dense accumulator + touched-column list.
  std::vector<Real> acc(static_cast<std::size_t>(b.cols()), 0.0);
  std::vector<bool> touched(static_cast<std::size_t>(b.cols()), false);
  std::vector<Index> cols_in_row;

  for (Index i = 0; i < a.rows(); ++i) {
    cols_in_row.clear();
    for (Index ka = a.row_ptr_[static_cast<std::size_t>(i)];
         ka < a.row_ptr_[static_cast<std::size_t>(i) + 1]; ++ka) {
      const Index j = a.col_idx_[static_cast<std::size_t>(ka)];
      const Real av = a.values_[static_cast<std::size_t>(ka)];
      for (Index kb = b.row_ptr_[static_cast<std::size_t>(j)];
           kb < b.row_ptr_[static_cast<std::size_t>(j) + 1]; ++kb) {
        const Index col = b.col_idx_[static_cast<std::size_t>(kb)];
        if (!touched[static_cast<std::size_t>(col)]) {
          touched[static_cast<std::size_t>(col)] = true;
          cols_in_row.push_back(col);
        }
        acc[static_cast<std::size_t>(col)] +=
            av * b.values_[static_cast<std::size_t>(kb)];
      }
    }
    std::sort(cols_in_row.begin(), cols_in_row.end());
    for (const Index col : cols_in_row) {
      c.col_idx_.push_back(col);
      c.values_.push_back(acc[static_cast<std::size_t>(col)]);
      acc[static_cast<std::size_t>(col)] = 0.0;
      touched[static_cast<std::size_t>(col)] = false;
    }
    c.row_ptr_[static_cast<std::size_t>(i) + 1] = to_index(c.col_idx_.size());
  }
  return c;
}

CsrMatrix add(const CsrMatrix& a, const CsrMatrix& b, Real alpha, Real beta) {
  SGL_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
              "add: shape mismatch");
  CsrMatrix c;
  c.rows_ = a.rows();
  c.cols_ = a.cols();
  c.row_ptr_.assign(static_cast<std::size_t>(c.rows_) + 1, 0);
  for (Index i = 0; i < a.rows(); ++i) {
    Index ka = a.row_ptr_[static_cast<std::size_t>(i)];
    Index kb = b.row_ptr_[static_cast<std::size_t>(i)];
    const Index ea = a.row_ptr_[static_cast<std::size_t>(i) + 1];
    const Index eb = b.row_ptr_[static_cast<std::size_t>(i) + 1];
    while (ka < ea || kb < eb) {
      Index col;
      Real val = 0.0;
      const Index ca = ka < ea ? a.col_idx_[static_cast<std::size_t>(ka)]
                               : std::numeric_limits<Index>::max();
      const Index cb = kb < eb ? b.col_idx_[static_cast<std::size_t>(kb)]
                               : std::numeric_limits<Index>::max();
      if (ca < cb) {
        col = ca;
        val = alpha * a.values_[static_cast<std::size_t>(ka++)];
      } else if (cb < ca) {
        col = cb;
        val = beta * b.values_[static_cast<std::size_t>(kb++)];
      } else {
        col = ca;
        val = alpha * a.values_[static_cast<std::size_t>(ka++)] +
              beta * b.values_[static_cast<std::size_t>(kb++)];
      }
      c.col_idx_.push_back(col);
      c.values_.push_back(val);
    }
    c.row_ptr_[static_cast<std::size_t>(i) + 1] = to_index(c.col_idx_.size());
  }
  return c;
}

}  // namespace sgl::la
