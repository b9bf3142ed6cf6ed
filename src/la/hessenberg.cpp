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

}  // namespace phes::la
