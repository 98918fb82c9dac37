#include "la/multi_vector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/parallel.hpp"
#include "common/simd.hpp"

namespace sgl::la {

namespace {

/// Workers for a kernel touching `rows` × `cols` elements (the work gate
/// of common/parallel.hpp; scheduling only, the values never depend on it).
Index threads_for(Index num_threads, Index rows, Index cols) {
  return parallel::threads_for_work(
      num_threads, static_cast<std::int64_t>(rows) * cols);
}

}  // namespace

void spmm(const CsrMatrix& a, ConstBlockView x, BlockView y,
          Index num_threads) {
  SGL_EXPECTS(x.rows == a.cols(), "spmm: inner dimension mismatch");
  SGL_EXPECTS(y.rows == a.rows() && y.cols == x.cols,
              "spmm: output shape mismatch");
  const Index b = x.cols;
  if (b == 0 || a.rows() == 0) return;
  const std::vector<Index>& row_ptr = a.row_ptr();
  const std::vector<Index>& col_idx = a.col_idx();
  const std::vector<Real>& values = a.values();

  // Columns are processed in groups of ≤ kGroup. Within a group the
  // operands are packed row-major (group-width contiguous strips per
  // matrix row), so every gathered nonzero touches one ≤64-byte strip
  // instead of b cache lines strided by the leading dimension — that,
  // plus streaming A's nonzeros once per group instead of once per
  // column, is what makes the blocked apply beat b sequential SpMVs.
  // Wider groups would stride the packed rows past a cache line and lose
  // the gather locality again (measured ~2× slower at width 16). The
  // packing passes are O(n·group), negligible against the O(nnz·group)
  // kernel.
  constexpr Index kGroup = 8;
  // Cache-line-aligned packing buffers: an 8-wide Real strip is exactly
  // one 64-byte line, so the kernel's strip loads are single aligned
  // vector accesses (DESIGN.md §9).
  Storage x_rm(static_cast<std::size_t>(x.rows) * kGroup);
  Storage y_rm(static_cast<std::size_t>(y.rows) * kGroup);

  for (Index g0 = 0; g0 < b; g0 += kGroup) {
    const Index gw = std::min<Index>(kGroup, b - g0);
    const std::size_t gs = static_cast<std::size_t>(gw);
    const Index threads = threads_for(num_threads, a.nnz(), gw);

    parallel::parallel_for_slots(
        0, x.rows, threads, [&](Index lo, Index hi, Index /*slot*/) {
          // i-outer: contiguous writes, gw strided read streams.
          for (Index i = lo; i < hi; ++i) {
            Real* dst = x_rm.data() + static_cast<std::size_t>(i) * gs;
            for (Index j = 0; j < gw; ++j)
              dst[j] = x.data[static_cast<std::size_t>(g0 + j) * x.rows +
                              static_cast<std::size_t>(i)];
          }
        });

    // Every y(i, j) is a fixed-order sum over the row's nonzeros, so
    // chunking cannot change the result. The tile width is a compile-time
    // constant (8, then 4/2/1 for the tail) so the accumulators live in
    // registers and the inner loop vectorizes — with a runtime trip count
    // they spill to the stack and the kernel runs ~3× slower than the
    // per-column SpMV it must beat.
    const auto kernel_pass = [&]<int TILE>(Index j0, Index lo, Index hi) {
      // The restrict qualifiers assert what the packing pass guarantees
      // (x_rm and y_rm are distinct buffers), letting the accumulators
      // stay in registers across the gather loop.
      const Real* SGL_RESTRICT xp = x_rm.data();
      Real* SGL_RESTRICT yp = y_rm.data();
      for (Index i = lo; i < hi; ++i) {
        const Index k_lo = row_ptr[static_cast<std::size_t>(i)];
        const Index k_hi = row_ptr[static_cast<std::size_t>(i) + 1];
        Real acc[TILE] = {};
        for (Index k = k_lo; k < k_hi; ++k) {
          const Real av = values[static_cast<std::size_t>(k)];
          const Real* SGL_RESTRICT xr =
              xp +
              static_cast<std::size_t>(col_idx[static_cast<std::size_t>(k)]) *
                  gs +
              static_cast<std::size_t>(j0);
          for (int jj = 0; jj < TILE; ++jj) acc[jj] += av * xr[jj];
        }
        Real* SGL_RESTRICT yr =
            yp + static_cast<std::size_t>(i) * gs + static_cast<std::size_t>(j0);
        for (int jj = 0; jj < TILE; ++jj) yr[jj] = acc[jj];
      }
    };
    parallel::parallel_for_slots(
        0, a.rows(), threads, [&](Index lo, Index hi, Index /*slot*/) {
          Index j0 = 0;
          for (; j0 + 8 <= gw; j0 += 8) kernel_pass.operator()<8>(j0, lo, hi);
          if (j0 + 4 <= gw) {
            kernel_pass.operator()<4>(j0, lo, hi);
            j0 += 4;
          }
          if (j0 + 2 <= gw) {
            kernel_pass.operator()<2>(j0, lo, hi);
            j0 += 2;
          }
          if (j0 < gw) kernel_pass.operator()<1>(j0, lo, hi);
        });

    parallel::parallel_for_slots(
        0, y.rows, threads, [&](Index lo, Index hi, Index /*slot*/) {
          // i-outer: contiguous reads, gw strided write streams.
          for (Index i = lo; i < hi; ++i) {
            const Real* src = y_rm.data() + static_cast<std::size_t>(i) * gs;
            for (Index j = 0; j < gw; ++j)
              y.data[static_cast<std::size_t>(g0 + j) * y.rows +
                     static_cast<std::size_t>(i)] = src[j];
          }
        });
  }
}

DenseMatrix block_inner(ConstBlockView v, ConstBlockView w, Index num_threads) {
  SGL_EXPECTS(v.rows == w.rows, "block_inner: row count mismatch");
  DenseMatrix c(v.cols, w.cols);
  const Index entries = v.cols * w.cols;
  if (entries == 0) return c;
  const Index n = v.rows;
  const Index threads = threads_for(num_threads, n, entries);
  parallel::parallel_for(0, entries, threads, [&](Index e) {
    const Index j = e / v.cols;  // column of W
    const Index i = e % v.cols;  // column of V
    const std::span<const Real> vi = v.col(i);
    const std::span<const Real> wj = w.col(j);
    Real acc = 0.0;
    for (Index k = 0; k < n; ++k)
      acc += vi[static_cast<std::size_t>(k)] * wj[static_cast<std::size_t>(k)];
    c(i, j) = acc;
  });
  return c;
}

void block_product(ConstBlockView v, const DenseMatrix& c, BlockView out,
                   Index num_threads) {
  SGL_EXPECTS(v.cols == c.rows(), "block_product: inner dimension mismatch");
  SGL_EXPECTS(out.rows == v.rows && out.cols == c.cols(),
              "block_product: output shape mismatch");
  if (out.rows == 0 || out.cols == 0) return;
  const Index threads = threads_for(num_threads, v.rows, v.cols * c.cols());
  // Row-chunked; within a chunk the k-loop runs column-contiguously over V
  // and in a fixed order per output element.
  parallel::parallel_for_slots(
      0, v.rows, threads, [&](Index lo, Index hi, Index /*slot*/) {
        for (Index j = 0; j < c.cols(); ++j) {
          const std::span<Real> oj = out.col(j);
          for (Index i = lo; i < hi; ++i) oj[static_cast<std::size_t>(i)] = 0.0;
          for (Index k = 0; k < v.cols; ++k) {
            const Real ckj = c(k, j);
            if (ckj == 0.0) continue;
            const std::span<const Real> vk = v.col(k);
            for (Index i = lo; i < hi; ++i)
              oj[static_cast<std::size_t>(i)] +=
                  vk[static_cast<std::size_t>(i)] * ckj;
          }
        }
      });
}

void block_subtract(BlockView w, ConstBlockView v, const DenseMatrix& c,
                    Index num_threads) {
  SGL_EXPECTS(v.cols == c.rows(), "block_subtract: inner dimension mismatch");
  SGL_EXPECTS(w.rows == v.rows && w.cols == c.cols(),
              "block_subtract: output shape mismatch");
  if (w.rows == 0 || w.cols == 0 || v.cols == 0) return;
  const Index threads = threads_for(num_threads, v.rows, v.cols * c.cols());
  parallel::parallel_for_slots(
      0, v.rows, threads, [&](Index lo, Index hi, Index /*slot*/) {
        for (Index j = 0; j < c.cols(); ++j) {
          const std::span<Real> wj = w.col(j);
          for (Index k = 0; k < v.cols; ++k) {
            const Real ckj = c(k, j);
            if (ckj == 0.0) continue;
            const std::span<const Real> vk = v.col(k);
            for (Index i = lo; i < hi; ++i)
              wj[static_cast<std::size_t>(i)] -=
                  vk[static_cast<std::size_t>(i)] * ckj;
          }
        }
      });
}

void block_axpy(const Vector& alpha, ConstBlockView x, BlockView y,
                Index num_threads) {
  SGL_EXPECTS(to_index(alpha.size()) == x.cols,
              "block_axpy: coefficient count mismatch");
  SGL_EXPECTS(x.rows == y.rows && x.cols == y.cols,
              "block_axpy: shape mismatch");
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const Real a = alpha[static_cast<std::size_t>(j)];
    const std::span<const Real> xj = x.col(j);
    const std::span<Real> yj = y.col(j);
    for (Index i = 0; i < x.rows; ++i)
      yj[static_cast<std::size_t>(i)] += a * xj[static_cast<std::size_t>(i)];
  });
}

void block_xpby(ConstBlockView x, const Vector& beta, BlockView y,
                Index num_threads) {
  SGL_EXPECTS(to_index(beta.size()) == x.cols,
              "block_xpby: coefficient count mismatch");
  SGL_EXPECTS(x.rows == y.rows && x.cols == y.cols,
              "block_xpby: shape mismatch");
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const Real b = beta[static_cast<std::size_t>(j)];
    const std::span<const Real> xj = x.col(j);
    const std::span<Real> yj = y.col(j);
    for (Index i = 0; i < x.rows; ++i)
      yj[static_cast<std::size_t>(i)] =
          xj[static_cast<std::size_t>(i)] + b * yj[static_cast<std::size_t>(i)];
  });
}

Vector column_dots(ConstBlockView x, ConstBlockView y, Index num_threads) {
  SGL_EXPECTS(x.rows == y.rows && x.cols == y.cols,
              "column_dots: shape mismatch");
  Vector d(static_cast<std::size_t>(x.cols), 0.0);
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const std::span<const Real> xj = x.col(j);
    const std::span<const Real> yj = y.col(j);
    Real acc = 0.0;
    for (Index i = 0; i < x.rows; ++i)
      acc += xj[static_cast<std::size_t>(i)] * yj[static_cast<std::size_t>(i)];
    d[static_cast<std::size_t>(j)] = acc;
  });
  return d;
}

Vector column_norms(ConstBlockView x, Index num_threads) {
  Vector d = column_dots(x, x, num_threads);
  for (Real& v : d) v = std::sqrt(v);
  return d;
}

void center_columns(BlockView x, Index num_threads) {
  if (x.rows == 0) return;
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const std::span<Real> xj = x.col(j);
    Real acc = 0.0;
    for (Index i = 0; i < x.rows; ++i) acc += xj[static_cast<std::size_t>(i)];
    const Real m = acc / static_cast<Real>(x.rows);
    for (Index i = 0; i < x.rows; ++i) xj[static_cast<std::size_t>(i)] -= m;
  });
}

Vector column_means(ConstBlockView x, Index num_threads) {
  SGL_EXPECTS(x.rows > 0, "column_means: need at least one row");
  Vector m(static_cast<std::size_t>(x.cols), 0.0);
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const std::span<const Real> xj = x.col(j);
    Real acc = 0.0;
    for (Index i = 0; i < x.rows; ++i) acc += xj[static_cast<std::size_t>(i)];
    m[static_cast<std::size_t>(j)] = acc / static_cast<Real>(x.rows);
  });
  return m;
}

void shift_columns(BlockView x, const Vector& delta, Index num_threads) {
  SGL_EXPECTS(to_index(delta.size()) == x.cols,
              "shift_columns: delta count mismatch");
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const Real d = delta[static_cast<std::size_t>(j)];
    const std::span<Real> xj = x.col(j);
    for (Index i = 0; i < x.rows; ++i) xj[static_cast<std::size_t>(i)] -= d;
  });
}

void gather_rows(ConstBlockView x, std::span<const Index> rows, BlockView out,
                 Index num_threads) {
  SGL_EXPECTS(to_index(rows.size()) == out.rows,
              "gather_rows: row map size mismatch");
  SGL_EXPECTS(x.cols == out.cols, "gather_rows: column count mismatch");
  const Index threads = threads_for(num_threads, out.rows, out.cols);
  parallel::parallel_for(0, out.cols, threads, [&](Index j) {
    const std::span<const Real> xj = x.col(j);
    const std::span<Real> oj = out.col(j);
    for (Index i = 0; i < out.rows; ++i) {
      oj[static_cast<std::size_t>(i)] =
          xj[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])];
    }
  });
}

void scatter_rows(ConstBlockView x, std::span<const Index> rows, BlockView out,
                  Index num_threads) {
  SGL_EXPECTS(to_index(rows.size()) == x.rows,
              "scatter_rows: row map size mismatch");
  SGL_EXPECTS(x.cols == out.cols, "scatter_rows: column count mismatch");
  const Index threads = threads_for(num_threads, x.rows, x.cols);
  parallel::parallel_for(0, x.cols, threads, [&](Index j) {
    const std::span<const Real> xj = x.col(j);
    const std::span<Real> oj = out.col(j);
    for (Index i = 0; i < x.rows; ++i) {
      oj[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])] =
          xj[static_cast<std::size_t>(i)];
    }
  });
}

}  // namespace sgl::la
