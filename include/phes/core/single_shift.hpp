#pragma once
// The single-shift iteration S(theta, rho0) -> ({lambda_k}, rho)
// (paper Sec. III, Fig. 1).
//
// A multi-restart, deflated Arnoldi process on the shift-and-inverted
// Hamiltonian around theta = j*omega_center.  Returns every eigenvalue
// inside a *certified clean disk* C(theta, rho): the eigenvalues listed
// are all of M's eigenvalues within distance rho of the shift.
//
// Acceptance.  A Ritz pair (mu, x) of the shift-invert operator is
// converged when its residual passes kRitzTol * |mu| and the
// first-order error of lambda = theta + 1/mu, residual / |mu|^2, is at
// most kEigTol * scale (ritz_pair_certified).  The residual test alone
// lets the eigenvalue error grow with the distance from the shift; the
// second test follows the eigenvalue-sensitivity view of Mehrmann-Xu.
// A pair that fails either test is unconverged.
//
// Radius rules.  The paper (Sec. III) also caps each disk at n_theta =
// 4-6 eigenvalues and shrinks it to enclose only the n_theta nearest;
// this code has no such cap and reports everything a shift converged:
//  - start from rho0;
//  - expand to the farthest converged eigenvalue;
//  - cap the certificate below the distance estimate 1/|mu| of the
//    nearest *unconverged* Ritz value, with a safety margin of 0.9, so
//    no eigenvalue the run has seen but not converged lies inside; a
//    pair that passes the residual test but not the error bound caps
//    the disk like any other, and the scheduler covers it with a
//    nearer shift;
//  - at least `min_restarts` runs are required, and the iteration only
//    stops once a fresh (deflated, re-randomized) restart adds nothing
//    new inside the disk — the explicit-restart insurance of [9]
//    against unlucky start vectors.
// Soundness does not rest on n_theta: every reported eigenvalue is a
// converged Ritz value, and completeness rests on the cap and on the
// confirmation run below, which works on the operator deflated by every
// locked pair however far the disk reaches.  Reporting all of them cut
// Table I cases 1-3 from 94/102/102 shifts to 58/55/60 at 1 thread at
// d = 60; at d = 32 with the error bound they take 122/124/130.  Of
// the copies overlapping disks report, the solver keeps the one
// nearest its own shift (merge_disk_eigenvalues).
//
// Restart 0 runs Arnoldi at d = kKrylovDim; every later restart is a
// confirmation run at min(kConfirmDim, d) from a fresh random start
// vector.  The insurance still holds at the shorter length.  Restart
// 0's converged pairs are deflated, so an eigenvalue it missed inside
// the disk has |mu| = 1/|lambda - theta| > 1/rho and is dominant in the
// deflated shift-invert spectrum, ahead of every eigenvalue outside the
// disk.  A confirmation run then either converges it (a new eigenvalue
// inside the disk, so another confirmation runs) or leaves it an
// unconverged Ritz value, and the certificate cap above keeps the disk
// below its distance estimate.  The confirmation run reuses
// restart 0's basis allocation, so a shift allocates one basis.
//
// Converged Ritz vectors become deflation vectors (an orthonormalized
// locked set) only for the next restart's Arnoldi run.  The final
// restart therefore reports its converged pairs but builds no
// deflation vectors from them.  A restart locks its newly converged
// pairs as one batch, orthonormalized in Krylov coordinates
// (core::lock_ritz_pairs).

#include <cstdint>

#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"

namespace phes::core {

/// Relative eigenvalue dedup radius: eigenvalues closer than
/// kClusterTol * scale are one eigenvalue, both when S locks Ritz
/// values and when the solver merges the disks' reports into Omega.
inline constexpr double kClusterTol = 1e-7;

/// The solver's `min_restarts` for every shift: restart 0 plus at
/// least one confirmation run from a fresh random start vector.
inline constexpr std::size_t kMinRestarts = 2;

/// Krylov dimension d of restart 0, clamped to the operator dimension
/// minus one.  The paper uses d = 60 for disks of n_theta = 4-6
/// eigenvalues; with no such cap, CGS2 grows as d^2 per shift while a
/// shift's yield grows about as d, so a shorter restart 0 certifies
/// eigenvalues more cheaply.  Picked with kEigTol by a sweep over
/// d in {32, 36, 40, 48, 60} x kEigTol in {1e-13, 1e-14} on all 12
/// Table I cases: the lowest summed 4-thread time with no case slower
/// than at d = 60, every crossing count kept at 1 and 4 threads, and
/// the 1-thread crossings of cases 1-3 as close to a dense solve's as
/// at d = 60.
inline constexpr std::size_t kKrylovDim = 32;

/// Krylov dimension of every restart after the first, clamped to d.
/// CGS2 costs O(d^2) per run, so a d = 20 confirmation costs about
/// two fifths of the d = 32 search's orthogonalization.  At 20 the
/// 1-thread Table I cases 1-3 kept the shift counts and crossings of a
/// full d = 60 confirmation behind a d = 60 search; at 12 the shift
/// counts of cases 1 and 2 moved.
inline constexpr std::size_t kConfirmDim = 20;

/// Relative residual bound of a converged Ritz pair (mu, x) of the
/// shift-invert operator: ||Op x - mu x|| <= kRitzTol * |mu|.
inline constexpr double kRitzTol = 1e-9;

/// Bound on a certified eigenvalue's first-order error, relative to
/// the shift's scale max(|omega_center|, max pole magnitude).  At
/// 1e-13 and d = 32 one crossing of Table I case 3 reads 4.1e-12 off
/// the dense solve's; at 1e-14 the worst of cases 1-3 is 1.1e-13, as
/// at d = 60 without the bound.
inline constexpr double kEigTol = 1e-14;

/// Whether S accepts a Ritz pair with residual estimate `residual` and
/// |mu| = `mu_abs` at a shift of scale `scale` (Acceptance, above);
/// residual / |mu|^2 = (residual / |mu|) * |lambda - theta|.
[[nodiscard]] inline bool ritz_pair_certified(double residual, double mu_abs,
                                              double scale) {
  return residual <= kRitzTol * mu_abs &&
         residual / mu_abs / mu_abs <= kEigTol * scale;
}

/// Result of one S invocation.
struct SingleShiftResult {
  la::ComplexVector eigenvalues;  ///< all eigenvalues in C(theta, radius)
  double radius = 0.0;            ///< certified clean radius
  std::size_t restarts = 0;
  std::size_t matvecs = 0;
  /// Shift-invert operators built (1; a nudged retry counts once).
  std::size_t factorizations = 0;
};

/// Run S(j*omega_center, rho0) on the realization's Hamiltonian with
/// at least `min_restarts` restarts.  `rng` supplies the random restart
/// vectors; pass a stream keyed by the shift id for
/// scheduling-independent reproducibility.  Builds its own
/// shift-invert operator.
[[nodiscard]] SingleShiftResult single_shift_iteration(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, std::size_t min_restarts, util::Rng& rng);

}  // namespace phes::core
