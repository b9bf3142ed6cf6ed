#pragma once
// BLAS-like dense kernels (level 1-3) over Matrix<T> and std::vector<T>.
//
// Plain single-threaded loops, cache-aware ikj ordering for gemm.

#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

namespace detail {
/// Squared modulus that works for both real and complex scalars.
inline double abs_sq(double x) noexcept { return x * x; }
inline double abs_sq(const Complex& x) noexcept { return std::norm(x); }
/// Conjugation helper: identity for reals.
inline double conj_of(double x) noexcept { return x; }
inline Complex conj_of(const Complex& x) noexcept { return std::conj(x); }

/// Scaled sum-of-squares update (LAPACK dlassq): folds |a| into the
/// running representation  scale^2 * ssq  without squaring a directly,
/// so entries near DBL_MAX / DBL_MIN neither overflow nor vanish.
inline void scaled_ssq(double a, double& scale, double& ssq) noexcept {
  a = std::abs(a);
  if (a == 0.0) return;
  if (scale < a) {
    const double r = scale / a;
    ssq = 1.0 + ssq * r * r;
    scale = a;
  } else {
    const double r = a / scale;
    ssq += r * r;
  }
}
inline void scaled_ssq_of(double v, double& scale, double& ssq) noexcept {
  scaled_ssq(v, scale, ssq);
}
inline void scaled_ssq_of(const Complex& v, double& scale,
                          double& ssq) noexcept {
  scaled_ssq(v.real(), scale, ssq);
  scaled_ssq(v.imag(), scale, ssq);
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Level 1: vector kernels
// ---------------------------------------------------------------------------

/// Euclidean inner product; conjugates the first argument for complex
/// scalars (i.e. x^H y), matching BLAS dotc.
template <typename T>
[[nodiscard]] T dot(std::span<const T> x, std::span<const T> y) {
  util::check(x.size() == y.size(), "dot: size mismatch");
  T acc{};
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += detail::conj_of(x[i]) * y[i];
  }
  return acc;
}

/// Euclidean norm.  The fast path is the naive sum of squares
/// (bit-identical to the historical kernel whenever it lands in the
/// normal range); when that sum overflows to inf or underflows below
/// the smallest normal, a scaled (hypot-style) pass recovers the norm
/// of vectors with entries near DBL_MAX / DBL_MIN.
template <typename T>
[[nodiscard]] double nrm2(std::span<const T> x) noexcept {
  double acc = 0.0;
  for (const auto& v : x) acc += detail::abs_sq(v);
  if (acc >= std::numeric_limits<double>::min() && std::isfinite(acc)) {
    return std::sqrt(acc);
  }
  // Rescue pass: acc overflowed, or is denormal/zero (which cannot
  // distinguish a zero vector from one whose squares underflowed).
  double scale = 0.0, ssq = 1.0;
  for (const auto& v : x) detail::scaled_ssq_of(v, scale, ssq);
  return scale * std::sqrt(ssq);
}

// ---------------------------------------------------------------------------
// Level 2: matrix-vector products
// ---------------------------------------------------------------------------

/// y = A x.  Rows are processed two at a time so each load of x feeds
/// two dot products; every row keeps one accumulator traversed in
/// ascending j, so results are bit-identical to the plain row loop.
template <typename T>
[[nodiscard]] std::vector<T> gemv(const Matrix<T>& a,
                                  std::span<const T> x) {
  util::check(a.cols() == x.size(), "gemv: shape mismatch");
  const std::size_t m = a.rows(), n = a.cols();
  std::vector<T> y(m, T{});
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const T* r0 = a.row_ptr(i);
    const T* r1 = a.row_ptr(i + 1);
    T acc0{}, acc1{};
    for (std::size_t j = 0; j < n; ++j) {
      const T xj = x[j];
      acc0 += r0[j] * xj;
      acc1 += r1[j] * xj;
    }
    y[i] = acc0;
    y[i + 1] = acc1;
  }
  if (i < m) {
    const T* row = a.row_ptr(i);
    T acc{};
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
  return y;
}

// ---------------------------------------------------------------------------
// Level 3: matrix-matrix products
// ---------------------------------------------------------------------------

/// C = A B
template <typename T>
[[nodiscard]] Matrix<T> gemm(const Matrix<T>& a, const Matrix<T>& b) {
  util::check(a.cols() == b.rows(), "gemm: shape mismatch");
  Matrix<T> c(a.rows(), b.cols());
  gemm_into(a, b, c);
  return c;
}

/// C = A B written into a preallocated result (ikj loop order).
template <typename T>
void gemm_into(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c) {
  util::check(a.cols() == b.rows() && c.rows() == a.rows() &&
                  c.cols() == b.cols(),
              "gemm_into: shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (std::size_t i = 0; i < m; ++i) {
    T* ci = c.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) ci[j] = T{};
    const T* ai = a.row_ptr(i);
    for (std::size_t l = 0; l < k; ++l) {
      const T ail = ai[l];
      const T* bl = b.row_ptr(l);
      for (std::size_t j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

/// Frobenius norm.
template <typename T>
[[nodiscard]] double frobenius_norm(const Matrix<T>& a) noexcept {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      acc += detail::abs_sq(a(i, j));
    }
  }
  return std::sqrt(acc);
}

}  // namespace phes::la
