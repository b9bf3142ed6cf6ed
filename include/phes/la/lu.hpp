#pragma once
// LU factorization with partial pivoting, for real and complex square
// matrices.  Used for: dense (M - theta I) reference solves in tests,
// the 2p x 2p Sherman-Morrison-Woodbury kernel, and R/S = D^T D - I
// solves when assembling the Hamiltonian.

#include <cmath>
#include <cstddef>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

/// PA = LU factorization holder; solves via forward/back substitution.
template <typename T>
class LuFactorization {
 public:
  /// Factor a square matrix.  Throws std::runtime_error on exact
  /// singularity (zero pivot column).
  explicit LuFactorization(Matrix<T> a) : lu_(std::move(a)) {
    util::check(lu_.is_square(), "LuFactorization: matrix must be square");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivoting: largest |entry| in column k at or below row k.
      std::size_t piv = k;
      double best = std::abs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::abs(lu_(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      util::require(best > 0.0, "LuFactorization: singular matrix");
      if (piv != k) {
        for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
        std::swap(perm_[k], perm_[piv]);
      }
      const T pivot = lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const T factor = lu_(i, k) / pivot;
        lu_(i, k) = factor;
        if (factor != T{}) {
          const T* rk = lu_.row_ptr(k);
          T* ri = lu_.row_ptr(i);
          for (std::size_t j = k + 1; j < n; ++j) ri[j] -= factor * rk[j];
        }
      }
    }
  }

  [[nodiscard]] std::size_t order() const noexcept { return lu_.rows(); }

  /// Solve A x = b.
  [[nodiscard]] std::vector<T> solve(const std::vector<T>& b) const {
    util::check(b.size() == order(), "LuFactorization::solve: size mismatch");
    const std::size_t n = order();
    std::vector<T> x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 1; i < n; ++i) {
      T acc = x[i];
      const T* row = lu_.row_ptr(i);
      for (std::size_t j = 0; j < i; ++j) acc -= row[j] * x[j];
      x[i] = acc;
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = x[ii];
      const T* row = lu_.row_ptr(ii);
      for (std::size_t j = ii + 1; j < n; ++j) acc -= row[j] * x[j];
      x[ii] = acc / row[ii];
    }
    return x;
  }

  /// Solve A X = B for all columns of B at once.
  [[nodiscard]] Matrix<T> solve(const Matrix<T>& b) const {
    return solve_many(b);
  }

  /// Fused multi-RHS solve: one right-hand side per COLUMN of `b`.
  /// Both substitutions sweep the LU rows once per k columns (instead
  /// of once per column) and their inner loops run contiguously across
  /// the RHS block, so they vectorize across right-hand sides.  Each
  /// column sees exactly the floating-point op sequence of the
  /// single-vector solve() — results are bit-identical, the traversal
  /// is just shared.
  [[nodiscard]] Matrix<T> solve_many(const Matrix<T>& b) const {
    util::check(b.rows() == order(),
                "LuFactorization::solve_many: shape mismatch");
    const std::size_t n = order(), k = b.cols();
    Matrix<T> x(n, k);
    for (std::size_t i = 0; i < n; ++i) {
      const T* src = b.row_ptr(perm_[i]);
      T* dst = x.row_ptr(i);
      for (std::size_t c = 0; c < k; ++c) dst[c] = src[c];
    }
    // Forward substitution with unit-diagonal L.
    for (std::size_t i = 1; i < n; ++i) {
      const T* row = lu_.row_ptr(i);
      T* xi = x.row_ptr(i);
      for (std::size_t j = 0; j < i; ++j) {
        const T lij = row[j];
        const T* xj = x.row_ptr(j);
        for (std::size_t c = 0; c < k; ++c) xi[c] -= lij * xj[c];
      }
    }
    // Back substitution with U.
    for (std::size_t ii = n; ii-- > 0;) {
      const T* row = lu_.row_ptr(ii);
      T* xi = x.row_ptr(ii);
      for (std::size_t j = ii + 1; j < n; ++j) {
        const T uij = row[j];
        const T* xj = x.row_ptr(j);
        for (std::size_t c = 0; c < k; ++c) xi[c] -= uij * xj[c];
      }
      const T pivot = row[ii];
      for (std::size_t c = 0; c < k; ++c) xi[c] /= pivot;
    }
    return x;
  }

 private:
  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
};

/// Convenience one-shot solve: x = A^{-1} b.
template <typename T>
[[nodiscard]] std::vector<T> lu_solve(Matrix<T> a, const std::vector<T>& b) {
  return LuFactorization<T>(std::move(a)).solve(b);
}

/// Dense inverse via LU (used only for small p x p matrices).
template <typename T>
[[nodiscard]] Matrix<T> lu_inverse(Matrix<T> a) {
  const std::size_t n = a.rows();
  return LuFactorization<T>(std::move(a)).solve(Matrix<T>::identity(n));
}

}  // namespace phes::la
