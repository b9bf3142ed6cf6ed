#pragma once
// Householder QR factorization and least-squares solving (real).
//
// Consumer: Vector Fitting — the sigma iterations of vector_fit (per
// column and iteration, one 2K x (2nb + 2) block per output, 400 x 26
// for a 12-pole fit over 200 samples, then a p nb x nb stacked solve)
// and its final residue solves.
//
// Storage layout.  The factor is held row-major: R in the upper
// triangle, the Householder vectors v (with v(k) = 1 implied) below
// the diagonal.  The constructor applies each reflector to the
// trailing columns in two row sweeps, so every inner loop walks one
// contiguous row and the compiler vectorizes it:
//   dot sweep:    s_j = A(k, j);  s_j += v_i * A(i, j) for i = k+1..m-1,
//   update sweep: s_j *= tau;  A(k, j) -= s_j;  A(i, j) -= s_j * v_i.
//
// Bit-identity contract.  Column j's update never feeds column j+1's
// dot product (which reads only column k and column j+1), so each s_j
// sees the same floating-point operations in the same order — rows
// ascending from k, no split accumulators — as the column-at-a-time
// loop the sweeps replaced.  For finite input R, Q and solve() are
// therefore bit-identical to that loop on any build that does not
// contract a*b + c into a fused multiply-add (the project's flags do
// not enable FMA).  tests/reference_kernels.hpp keeps the old loop
// verbatim as reference_qr, and test_la_kernels asserts memcmp
// equality.

#include <cstddef>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Compact Householder QR of an m x n real matrix, m >= n.
class QrFactorization {
 public:
  /// Factors A in place.  Throws std::invalid_argument if m < n.
  // Starts on a 64-byte boundary.  Its row sweeps are vector fitting's
  // hot loops, and their speed depends on where they fall relative to
  // 64-byte boundaries: whenever code linked before them grew or
  // shrank, they moved with it and the serving workloads' verdict
  // times moved by 5-13 %.  A fixed start keeps their offsets fixed.
  __attribute__((aligned(64))) explicit QrFactorization(RealMatrix a);

  [[nodiscard]] std::size_t rows() const noexcept { return qr_.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return qr_.cols(); }

  /// Minimum-residual solution of min ||A x - b||_2 (x has n entries).
  [[nodiscard]] RealVector solve(RealVector b) const;

  /// Explicit R (n x n upper triangular).
  [[nodiscard]] RealMatrix r() const;

 private:
  void apply_qt(RealVector& b) const;  // b <- Q^T b

  RealMatrix qr_;           // R in the upper triangle, reflectors below
  RealVector tau_;          // reflector scalars
};

/// One-shot least squares: argmin_x ||A x - b||_2.
[[nodiscard]] RealVector least_squares(RealMatrix a, RealVector b);

}  // namespace phes::la
