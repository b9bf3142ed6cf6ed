#pragma once
// Arnoldi process with deflation (paper Sec. III).
//
// Builds an orthonormal basis V_d of the Krylov subspace
//   span{ v1, Op v1, ..., Op^{d-1} v1 }
// by blocked classical Gram-Schmidt with one reorthogonalization pass
// (CGS2), while keeping every basis vector orthogonal to a set of
// locked (previously converged) Ritz vectors — the "incremental
// deflation" of [9].  The Galerkin projection returns the (d+1) x d
// Hessenberg matrix whose eigenpairs approximate the operator's
// dominant eigenpairs.
//
// Every full-space vector of the process (the basis, the locked set
// and the working vector) is stored as a plane row (la/kernels.hpp):
// re(x) followed by im(x).  The basis and the locked set are packs of
// plane rows with row stride 2 * dim in one allocation each, so the
// Gram-Schmidt passes and the locked rows' formation all run through
// the kernels' dotc_rows / axpy_rows on contiguous doubles.  Locking
// orthonormalizes in the d Krylov coordinates, not in the full space.
// The operator still sees interleaved vectors; each step merges one
// basis row into an interleaved scratch for op.apply and splits the
// result.

#include <span>
#include <vector>

#include "phes/hamiltonian/operators.hpp"
#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/util/rng.hpp"

namespace phes::core {

using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;

/// A complex vector of length dim as one plane row: 2 * dim doubles,
/// the real parts followed by the imaginary parts.
using PlaneVector = std::vector<double>;

/// Output of one Arnoldi run.
struct ArnoldiResult {
  /// The (d+1) orthonormal basis vectors as plane rows in one
  /// allocation: row k is [re(dim) | im(dim)] at offset 2 * dim * k.
  /// Rows past `steps` stay zero (a breakdown stops the run early).
  std::vector<double> basis;
  std::size_t dim = 0;  ///< operator dimension (length of a basis vector)
  ComplexMatrix h;    ///< (steps+1) x steps Hessenberg projection
  std::size_t steps = 0;  ///< completed steps (< d on lucky breakdown)
  std::size_t matvecs = 0;
};

/// One approximate eigenpair extracted from the projection.
///
/// The full-space Ritz vector x = V_d y costs d * dim complex
/// multiply-adds, far more than the d x d eigensolve that yields y, and
/// callers need it only for the span of the few pairs they lock.  So a
/// pair carries only its projected eigenvector y (`coords`, length d);
/// lock_ritz_pairs writes the full-space rows of the pairs it locks.
struct RitzPair {
  Complex value{};       ///< eigenvalue of the *operator* (e.g. mu)
  double residual = 0.0; ///< ||Op x - mu x|| estimate
  ComplexVector coords;  ///< unit-norm eigenvector y of H_d (length d)
};

/// Run `d` Arnoldi steps from start vector v0 (need not be normalized).
/// `locked` is the locked set as lock_ritz_pairs builds it: orthonormal
/// plane rows of length 2 * dim packed with row stride 2 * dim, the
/// layout of ArnoldiResult::basis.  Its rows are deflated: the basis is
/// kept orthogonal to them.  Throws std::invalid_argument on dimension
/// mismatches (a pack that is not a whole number of rows).
///
/// Orthogonalization is blocked classical Gram-Schmidt with a full
/// reorthogonalization pass (CGS2, "twice is enough"): all projections
/// against the un-updated w are computed with the row-paired
/// multi-accumulator plane-row dot kernels (locked rows paired among
/// themselves, then basis rows), then subtracted en bloc.
///
/// `storage` becomes ArnoldiResult::basis: pass an earlier run's basis
/// to reuse its allocation when it has the capacity (its contents are
/// overwritten), so a sequence of runs at or below the first run's d
/// allocates its basis once.
[[nodiscard]] ArnoldiResult arnoldi(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const Complex> v0, std::size_t d,
    std::span<const double> locked, std::vector<double> storage = {});

/// Ritz pairs of an Arnoldi result, sorted by descending |value|
/// (for shift-inverted operators this is ascending distance from the
/// shift).  Residuals use the h(d+1,d) * |last component| bound.
[[nodiscard]] std::vector<RitzPair> ritz_pairs(const ArnoldiResult& ar);

/// Append an orthonormal basis of the span of the Ritz vectors V_d y of
/// `pairs` (pairs of `ar`) to `locked`, the pack `ar` was deflated
/// against; returns the number of rows appended.  Raw Ritz vectors of a
/// non-normal operator are not orthogonal, and deflating with them
/// produces spurious Ritz values.  V_d is orthonormal and orthogonal to
/// `locked`, so the coordinates y are orthonormalized in C^d instead:
/// two modified Gram-Schmidt passes in the order of `pairs`, dropping a
/// direction whose residual norm is below 1e-8 (already represented).
/// Each kept q becomes the pack's next row V_d q in place, one axpy_rows
/// sweep in ascending row order; the pack is reserved once per call.
std::size_t lock_ritz_pairs(const ArnoldiResult& ar,
                            std::span<const RitzPair* const> pairs,
                            std::vector<double>& locked);

/// Random complex start vector of unit norm.
[[nodiscard]] ComplexVector random_start_vector(std::size_t dim,
                                                util::Rng& rng);

}  // namespace phes::core
