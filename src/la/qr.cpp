#include "phes/la/qr.hpp"

#include <cmath>
#include <utility>

#include "phes/util/check.hpp"

namespace phes::la {

QrFactorization::QrFactorization(RealMatrix a) : qr_(std::move(a)) {
  util::check(qr_.rows() >= qr_.cols(),
              "QrFactorization: requires rows >= cols");
  const std::size_t m = qr_.rows(), n = qr_.cols();
  tau_.assign(n, 0.0);
  // s_j of the trailing-column update, one entry per column right of k.
  RealVector s(n > 0 ? n - 1 : 0);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the Householder reflector annihilating qr_(k+1..m-1, k).
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += qr_(i, k) * qr_(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) {
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0.0 ? -norm_x : norm_x;
    // v = x - alpha e1, normalized so v(k) = 1; store v below diagonal.
    const double vk = qr_(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= vk;
    tau_[k] = -vk / alpha;  // tau = 2 / (v^T v) given the normalization
    qr_(k, k) = alpha;

    // Apply (I - tau v v^T) to the trailing columns in two row sweeps
    // (see the order contract in qr.hpp): s = A(k, :) + sum_i v_i A(i, :)
    // row by row, then A(k, :) -= tau s and A(i, :) -= (tau s) v_i.
    const std::size_t w = n - k - 1;
    double* const row_k = qr_.row_ptr(k) + k + 1;
    for (std::size_t j = 0; j < w; ++j) s[j] = row_k[j];
    for (std::size_t i = k + 1; i < m; ++i) {
      const double* const row = qr_.row_ptr(i);
      const double vi = row[k];
      for (std::size_t j = 0; j < w; ++j) s[j] += vi * row[k + 1 + j];
    }
    for (std::size_t j = 0; j < w; ++j) {
      s[j] *= tau_[k];
      row_k[j] -= s[j];
    }
    for (std::size_t i = k + 1; i < m; ++i) {
      double* const row = qr_.row_ptr(i);
      const double vi = row[k];
      for (std::size_t j = 0; j < w; ++j) row[k + 1 + j] -= s[j] * vi;
    }
  }
}

void QrFactorization::apply_qt(RealVector& b) const {
  const std::size_t m = qr_.rows(), n = qr_.cols();
  for (std::size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = b[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * b[i];
    s *= tau_[k];
    b[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * qr_(i, k);
  }
}

RealVector QrFactorization::solve(RealVector b) const {
  util::check(b.size() == qr_.rows(), "QrFactorization::solve: size mismatch");
  const std::size_t n = qr_.cols();
  apply_qt(b);
  RealVector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= qr_(ii, j) * x[j];
    util::require(qr_(ii, ii) != 0.0,
                  "QrFactorization::solve: rank-deficient system");
    x[ii] = acc / qr_(ii, ii);
  }
  return x;
}

RealMatrix QrFactorization::r() const {
  const std::size_t n = qr_.cols();
  RealMatrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) r(i, j) = qr_(i, j);
  }
  return r;
}

RealVector least_squares(RealMatrix a, RealVector b) {
  return QrFactorization(std::move(a)).solve(std::move(b));
}

}  // namespace phes::la
