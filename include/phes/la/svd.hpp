#pragma once
// Singular value machinery.
//
// Passivity of a scattering macromodel is a bound on the singular values
// of the p x p complex transfer matrix H(jw) (paper Eq. 3).  We provide:
//  - a one-sided Jacobi SVD for real matrices (full U, sigma, V),
//  - a two-sided Jacobi eigensolver for complex Hermitian matrices,
//  - singular values / leading triplets of complex matrices via the
//    Hermitian eigenproblem of A^H A (p <= ~100, so Jacobi's O(p^3)
//    per sweep is cheap and its accuracy near sigma = 1 is excellent).

#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Thin SVD A = U diag(sigma) V^T of a real m x n matrix (m >= n).
struct RealSvdResult {
  RealMatrix u;        ///< m x n, orthonormal columns
  RealVector sigma;    ///< n singular values, descending
  RealMatrix v;        ///< n x n orthogonal
};

[[nodiscard]] RealSvdResult real_svd(RealMatrix a);

/// Singular values only (descending).
[[nodiscard]] RealVector real_singular_values(RealMatrix a);

/// Eigen-decomposition A = V diag(lambda) V^H of a complex Hermitian
/// matrix; lambda real, descending.
struct HermitianEigResult {
  RealVector values;
  ComplexMatrix vectors;
};

[[nodiscard]] HermitianEigResult hermitian_eig(ComplexMatrix a,
                                               bool want_vectors);

/// Singular values of a complex matrix, descending.
// Starts on a 64-byte boundary, like QrFactorization's constructor:
// a hot serving function whose speed otherwise moves with the size
// of the code linked before it.
[[nodiscard]] __attribute__((aligned(64))) RealVector
complex_singular_values(const ComplexMatrix& a);

/// Largest singular value of a complex matrix.
[[nodiscard]] double complex_spectral_norm(const ComplexMatrix& a);

/// Full set of singular triplets (u_i, sigma_i, v_i) of a square complex
/// matrix, descending by sigma.  u_i = A v_i / sigma_i (valid when
/// sigma_i is well separated from zero, which holds near the unit
/// threshold where passivity analysis needs them).
struct ComplexSvdResult {
  ComplexMatrix u;
  RealVector sigma;
  ComplexMatrix v;
};

[[nodiscard]] ComplexSvdResult complex_svd(const ComplexMatrix& a);

}  // namespace phes::la
