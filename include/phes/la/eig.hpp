#pragma once
// Complex Hessenberg eigensolver.
//
// The Arnoldi process projects the shifted-and-inverted Hamiltonian onto
// a d-dimensional Krylov basis, giving a small complex upper-Hessenberg
// matrix (d <= 60 in the paper).  Its eigenpairs (Ritz pairs) are
// computed here with a shifted QR iteration using complex Givens
// rotations, plus triangular back-substitution for eigenvectors.
//
// Storage layout.  hessenberg_eig works in split real arithmetic: the
// Schur factor T is held as separate row-major real and imaginary
// planes, and the Schur basis Z is held transposed (row k of Z^T is
// column k of Z), so the rotations of Z's column pairs — the bulk of
// the work when eigenvectors are wanted — are contiguous row sweeps
// that the compiler vectorizes.
//
// Bit-identity contract.  The split loops perform the same Givens
// rotations, with the same floating-point operations in the same
// order, as the interleaved std::complex loops they replaced: every
// complex product is written out the way std::complex evaluates it
// (x*y = (xr*yr - xi*yi, xr*yi + xi*yr); a real factor scales each
// part), e.g. t_k <- c*t_k + s*t_k1 becomes
//   re: c*t1r + (sr*t2r - si*t2i),   im: c*t1i + (sr*t2i + si*t2r).
// The deflation scan settles most rows on cheap |re|, |im| bounds
// before the exact |sub| <= kEps * ref test; the bounds are
// conservative, so every decision is the exact test's.
// For finite input, eigenvalues and eigenvectors are therefore
// bit-identical to the old code on any build that does not contract
// a*b + c into a fused multiply-add (the project's flags do not enable
// FMA).  test_la_kernels keeps the old loop verbatim as its oracle and
// asserts memcmp equality.

#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::la {

/// Eigen-decomposition of a complex matrix.
struct ComplexEigResult {
  ComplexVector values;  ///< eigenvalues (unordered)
  ComplexMatrix vectors;  ///< columns are unit-norm eigenvectors (may be empty)
};

/// Eigenpairs of an upper-Hessenberg complex matrix.
/// Entries below the first subdiagonal are ignored.
[[nodiscard]] ComplexEigResult hessenberg_eig(ComplexMatrix h,
                                              bool want_vectors);

}  // namespace phes::la
