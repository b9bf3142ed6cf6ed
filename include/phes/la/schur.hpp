#pragma once
// Real Schur decomposition via the Francis implicit double-shift QR
// algorithm.  This is the full-spectrum dense solve the paper's
// Sec. III dismisses as O(n^3) for large models.  It is the dense
// route's eigensolver (core::solve_dense, models of order up to
// engine::kDenseMaxOrder) and vector fitting's pole relocation.

#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Real Schur factor T of A = Q T Q^T: quasi-upper-triangular (1x1 /
/// 2x2 diagonal blocks).  The orthogonal factor Q is not formed.
struct RealSchurResult {
  RealMatrix t;                   ///< quasi-triangular factor
  ComplexVector eigenvalues;      ///< all n eigenvalues
};

/// Compute the real Schur factor.  Throws std::runtime_error if the QR
/// iteration fails to converge (pathological; not observed in practice).
// Starts on a 64-byte boundary, like QrFactorization's constructor:
// a hot serving function whose speed otherwise moves with the size
// of the code linked before it.
[[nodiscard]] __attribute__((aligned(64))) RealSchurResult real_schur(
    RealMatrix a);

/// Eigenvalues only (Hessenberg + Francis QR, real_schur(a).eigenvalues).
[[nodiscard]] ComplexVector real_eigenvalues(RealMatrix a);

}  // namespace phes::la
