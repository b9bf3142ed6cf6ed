#pragma once
// The single-shift iteration S(theta, rho0) -> ({lambda_k}, rho)
// (paper Sec. III, Fig. 1).
//
// A multi-restart, deflated Arnoldi process on the shift-and-inverted
// Hamiltonian around theta = j*omega_center.  Returns every eigenvalue
// inside a *certified clean disk* C(theta, rho): the eigenvalues listed
// are all of M's eigenvalues within distance rho of the shift.
//
// Radius rules.  The paper (Sec. III) also caps each disk at n_theta =
// 4-6 eigenvalues and shrinks it to enclose only the n_theta nearest;
// this code has no such cap and reports everything a shift converged:
//  - start from rho0;
//  - expand to the farthest converged eigenvalue;
//  - cap the certificate below the distance estimate 1/|mu| of the
//    nearest *unconverged* Ritz value, with a safety margin of 0.9, so
//    no eigenvalue the run has seen but not converged lies inside;
//  - at least `min_restarts` runs are required, and the iteration only
//    stops once a fresh (deflated, re-randomized) restart adds nothing
//    new inside the disk — the explicit-restart insurance of [9]
//    against unlucky start vectors.
// Soundness does not rest on n_theta: every reported eigenvalue is a
// converged Ritz value, and completeness rests on the cap and on the
// confirmation run below, which works on the operator deflated by every
// locked pair however far the disk reaches.  Reporting all of them cuts
// Table I cases 1-3 from 94/102/102 shifts to 58/55/60 at 1 thread.  An
// eigenvalue far from its shift is less accurate, so the solver keeps,
// of the copies overlapping disks report, the one nearest its own
// shift (merge_disk_eigenvalues).
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

/// Krylov dimension d of restart 0 (the paper's d = 60), clamped to
/// the operator dimension minus one.
inline constexpr std::size_t kKrylovDim = 60;

/// Krylov dimension of every restart after the first, clamped to d.
/// CGS2 costs O(d^2) per run, so a d = 20 confirmation costs about a
/// ninth of the d = 60 search's orthogonalization.  At 20 the 1-thread
/// Table I cases 1-3 keep the shift counts and crossings of a full
/// d = 60 confirmation; at 12 the shift counts of cases 1 and 2 moved.
inline constexpr std::size_t kConfirmDim = 20;

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
