#include "phes/la/schur.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "phes/la/blas.hpp"
#include "phes/la/hessenberg.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

namespace {

// Householder reflector for a 2- or 3-vector: returns (v, beta) with
// v[0] = 1 such that (I - beta v v^T) x = (+-||x||, 0, 0).
struct SmallReflector {
  double v1 = 0.0;
  double v2 = 0.0;  // unused for 2-vectors
  double beta = 0.0;
};

SmallReflector make_reflector(double x, double y, double z, bool use_z) {
  SmallReflector h;
  const double norm =
      std::sqrt(x * x + y * y + (use_z ? z * z : 0.0));
  if (norm == 0.0) return h;
  const double alpha = x >= 0.0 ? -norm : norm;
  const double v0 = x - alpha;
  if (v0 == 0.0) return h;
  h.v1 = y / v0;
  h.v2 = use_z ? z / v0 : 0.0;
  h.beta = -v0 / alpha;
  return h;
}

// One implicit Francis double-shift QR sweep on the active block
// [l, m] (inclusive) of the Hessenberg matrix h.  sum/prod are the sum
// and product of the two shifts.
void francis_step(RealMatrix& h, std::size_t l, std::size_t m, double sum,
                  double prod) {
  const std::size_t n = h.rows();
  double x = h(l, l) * h(l, l) + h(l, l + 1) * h(l + 1, l) - sum * h(l, l) +
             prod;
  double y = h(l + 1, l) * (h(l, l) + h(l + 1, l + 1) - sum);
  double z = h(l + 1, l) * h(l + 2, l + 1);

  for (std::size_t k = l; k <= m - 1; ++k) {
    const bool use_z = (k + 2 <= m);
    const SmallReflector r = make_reflector(x, y, z, use_z);
    if (r.beta != 0.0) {
      // Left: rows k..k+2 (or k..k+1), columns from the bulge column.
      const std::size_t c0 = (k > l) ? k - 1 : l;
      for (std::size_t j = c0; j < n; ++j) {
        double s = h(k, j) + r.v1 * h(k + 1, j);
        if (use_z) s += r.v2 * h(k + 2, j);
        s *= r.beta;
        h(k, j) -= s;
        h(k + 1, j) -= s * r.v1;
        if (use_z) h(k + 2, j) -= s * r.v2;
      }
      // Right: columns k..k+2 (or k..k+1), rows up to the bulge row.
      const std::size_t r1 = std::min(k + 3, m);
      for (std::size_t i = 0; i <= r1; ++i) {
        double s = h(i, k) + r.v1 * h(i, k + 1);
        if (use_z) s += r.v2 * h(i, k + 2);
        s *= r.beta;
        h(i, k) -= s;
        h(i, k + 1) -= s * r.v1;
        if (use_z) h(i, k + 2) -= s * r.v2;
      }
      if (k > l) {
        // The reflector annihilated rows k+1(..k+2) of the bulge column
        // exactly; clear the floating-point residue so the matrix stays
        // strictly Hessenberg below the chase.
        h(k + 1, k - 1) = 0.0;
        if (use_z) h(k + 2, k - 1) = 0.0;
      }
    }
    // Next bulge column.
    if (k + 1 <= m - 1) {
      x = h(k + 1, k);
      y = (k + 2 <= m) ? h(k + 2, k) : 0.0;
      z = (k + 3 <= m) ? h(k + 3, k) : 0.0;
    }
  }
}

// Eigenvalues of a quasi-upper-triangular matrix: its 1x1 diagonal
// entries and the closed-form pairs of its 2x2 blocks.
ComplexVector quasi_triangular_eigenvalues(const RealMatrix& t) {
  const std::size_t n = t.rows();
  ComplexVector lambda;
  lambda.reserve(n);
  std::size_t i = 0;
  while (i < n) {
    const bool two_by_two = (i + 1 < n) && t(i + 1, i) != 0.0;
    if (!two_by_two) {
      lambda.emplace_back(t(i, i), 0.0);
      ++i;
      continue;
    }
    const double a = t(i, i), b = t(i, i + 1);
    const double c = t(i + 1, i), d = t(i + 1, i + 1);
    const double mean = 0.5 * (a + d);
    const double disc = 0.25 * (a - d) * (a - d) + b * c;
    if (disc >= 0.0) {
      const double sq = std::sqrt(disc);
      lambda.emplace_back(mean + sq, 0.0);
      lambda.emplace_back(mean - sq, 0.0);
    } else {
      const double sq = std::sqrt(-disc);
      lambda.emplace_back(mean, sq);
      lambda.emplace_back(mean, -sq);
    }
    i += 2;
  }
  return lambda;
}

}  // namespace

RealSchurResult real_schur(RealMatrix a) {
  util::check(a.is_square(), "real_schur: matrix must be square");
  const std::size_t n = a.rows();
  if (n == 0) return {RealMatrix(), {}};
  if (n == 1) {
    ComplexVector ev{Complex(a(0, 0), 0.0)};
    return {std::move(a), std::move(ev)};
  }

  RealMatrix h = hessenberg_reduce(std::move(a));

  const double norm_scale = std::max(frobenius_norm(h), 1e-300);
  std::size_t m = n - 1;
  std::size_t iter = 0;
  std::size_t total_iter = 0;
  const std::size_t max_total = 50 * n;

  while (m > 0) {
    // Deflation scan: zero negligible subdiagonals, find active block.
    std::size_t l = m;
    while (l > 0) {
      const double sub = std::abs(h(l, l - 1));
      double ref = std::abs(h(l - 1, l - 1)) + std::abs(h(l, l));
      if (ref == 0.0) ref = norm_scale;
      if (sub <= kEps * ref) {
        h(l, l - 1) = 0.0;
        break;
      }
      --l;
    }

    if (l == m) {
      // 1x1 block converged.
      --m;
      iter = 0;
      continue;
    }
    if (l + 1 == m) {
      // 2x2 block converged (its eigenvalues are read off at the end).
      m = (m >= 2) ? m - 2 : 0;
      if (l == 0 && m == 0) break;
      iter = 0;
      continue;
    }

    ++iter;
    ++total_iter;
    util::require(total_iter < max_total,
                  "real_schur: QR iteration failed to converge");

    double sum, prod;
    if (iter % 11 == 10) {
      // Exceptional (ad hoc) shifts to break symmetry stalls.
      const double w = std::abs(h(m, m - 1)) + std::abs(h(m - 1, m - 2));
      sum = 1.5 * w;
      prod = w * w;
    } else {
      // Standard Francis shifts: eigenvalues of the trailing 2x2.
      sum = h(m - 1, m - 1) + h(m, m);
      prod = h(m - 1, m - 1) * h(m, m) - h(m - 1, m) * h(m, m - 1);
    }
    francis_step(h, l, m, sum, prod);
  }

  ComplexVector ev = quasi_triangular_eigenvalues(h);
  return {std::move(h), std::move(ev)};
}

ComplexVector real_eigenvalues(RealMatrix a) {
  return real_schur(std::move(a)).eigenvalues;
}

}  // namespace phes::la
