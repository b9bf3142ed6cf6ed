#include "phes/la/hessenberg.hpp"

#include <cmath>

#include "phes/util/check.hpp"

namespace phes::la {

RealMatrix hessenberg_reduce(RealMatrix a) {
  util::check(a.is_square(), "hessenberg_reduce: matrix must be square");
  const std::size_t n = a.rows();

  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder vector annihilating a(k+2.., k).
    double norm_x = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) norm_x += a(i, k) * a(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;
    const double alpha = a(k + 1, k) >= 0.0 ? -norm_x : norm_x;
    const double v0 = a(k + 1, k) - alpha;
    RealVector v(n - k - 1);
    v[0] = 1.0;
    for (std::size_t i = k + 2; i < n; ++i) v[i - k - 1] = a(i, k) / v0;
    const double beta = -v0 / alpha;  // 2 / v^T v with v[0] = 1

    // Left: rows k+1.., all columns from k.
    for (std::size_t j = k; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = k + 1; i < n; ++i) s += v[i - k - 1] * a(i, j);
      s *= beta;
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= s * v[i - k - 1];
    }
    // Right: cols k+1.., all rows.
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = k + 1; j < n; ++j) s += a(i, j) * v[j - k - 1];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= s * v[j - k - 1];
    }
    // Zero out the annihilated entries explicitly.
    a(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) a(i, k) = 0.0;
  }
  return a;
}

ComplexHessenbergResult hessenberg_reduce(ComplexMatrix a,
                                          bool accumulate_q) {
  util::check(a.is_square(), "hessenberg_reduce: matrix must be square");
  const std::size_t n = a.rows();
  ComplexMatrix q = accumulate_q ? ComplexMatrix::identity(n)
                                 : ComplexMatrix();

  for (std::size_t k = 0; k + 2 < n; ++k) {
    double norm_x = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) norm_x += std::norm(a(i, k));
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;
    // alpha = -exp(i arg(x0)) * ||x||, so that v = x - alpha e1 is safe.
    const Complex x0 = a(k + 1, k);
    const Complex phase =
        std::abs(x0) > 0.0 ? x0 / std::abs(x0) : Complex(1.0, 0.0);
    const Complex alpha = -phase * norm_x;
    const Complex v0 = x0 - alpha;
    if (std::abs(v0) == 0.0) continue;
    ComplexVector v(n - k - 1);
    v[0] = Complex(1.0, 0.0);
    for (std::size_t i = k + 2; i < n; ++i) v[i - k - 1] = a(i, k) / v0;
    // beta = 2 / v^H v (real by construction of the Householder vector).
    double vhv = 0.0;
    for (const auto& vi : v) vhv += std::norm(vi);
    const double beta = 2.0 / vhv;

    // Left: A <- (I - beta v v^H) A on rows k+1.., columns k..
    for (std::size_t j = k; j < n; ++j) {
      Complex s{};
      for (std::size_t i = k + 1; i < n; ++i) {
        s += std::conj(v[i - k - 1]) * a(i, j);
      }
      s *= beta;
      for (std::size_t i = k + 1; i < n; ++i) a(i, j) -= s * v[i - k - 1];
    }
    // Right: A <- A (I - beta v v^H) on cols k+1.., all rows.
    for (std::size_t i = 0; i < n; ++i) {
      Complex s{};
      for (std::size_t j = k + 1; j < n; ++j) s += a(i, j) * v[j - k - 1];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) {
        a(i, j) -= s * std::conj(v[j - k - 1]);
      }
    }
    if (accumulate_q) {
      for (std::size_t i = 0; i < n; ++i) {
        Complex s{};
        for (std::size_t j = k + 1; j < n; ++j) s += q(i, j) * v[j - k - 1];
        s *= beta;
        for (std::size_t j = k + 1; j < n; ++j) {
          q(i, j) -= s * std::conj(v[j - k - 1]);
        }
      }
    }
    a(k + 1, k) = alpha;
    for (std::size_t i = k + 2; i < n; ++i) a(i, k) = Complex{};
  }
  return {std::move(a), std::move(q)};
}

}  // namespace phes::la
