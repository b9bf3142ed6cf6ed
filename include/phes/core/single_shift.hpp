#pragma once
// The single-shift iteration S(theta, rho0) -> ({lambda_k}, rho)
// (paper Sec. III, Fig. 1).
//
// A multi-restart, deflated Arnoldi process on the shift-and-inverted
// Hamiltonian around theta = j*omega_center.  Returns every eigenvalue
// inside a *certified clean disk* C(theta, rho): the eigenvalues listed
// are all of M's eigenvalues within distance rho of the shift.
//
// Radius rules implemented exactly as described in the paper:
//  - start from rho0;
//  - if more than n_theta eigenvalues converge inside the current disk,
//    the radius shrinks so that only the n_theta closest are enclosed
//    and the rest are discarded from the report (they stay locked for
//    deflation);
//  - if converged eigenvalues fall outside the initial disk (and the
//    count allows), the radius expands to the farthest converging one;
//  - the certificate is additionally capped below the distance estimate
//    1/|mu| of the nearest *unconverged* Ritz value, with a safety
//    margin, so no unseen eigenvalue can hide inside the disk;
//  - at least `min_restarts` runs are required, and the iteration only
//    stops once a fresh (deflated, re-randomized) restart adds nothing
//    new inside the disk — the explicit-restart insurance of [9]
//    against unlucky start vectors.
//
// Restart 0 runs Arnoldi at d = krylov_dim; every later restart is a
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
// deflation vectors from them.

#include <cstdint>

#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"

namespace phes::core {

/// Relative eigenvalue dedup radius: eigenvalues closer than
/// kClusterTol * scale are one eigenvalue, both when S locks Ritz
/// values and when the solver merges the disks' reports into Omega.
inline constexpr double kClusterTol = 1e-7;

/// The solver's `min_restarts`; a disk the recorded solve of the same
/// model already certified is re-confirmed with 1.
inline constexpr std::size_t kMinRestarts = 2;

/// Krylov dimension of every restart after the first, clamped to d.
/// CGS2 costs O(d^2) per run, so a d = 20 confirmation costs about a
/// ninth of the d = 60 search's orthogonalization.  At 20 the 1-thread
/// Table I cases 1-3 keep the shift counts and crossings of a full
/// d = 60 confirmation; at 12 the shift counts of cases 1 and 2 moved.
inline constexpr std::size_t kConfirmDim = 20;

/// Tuning knobs of S; defaults follow the paper (d = 60, n_theta = 4-6).
struct SingleShiftOptions {
  std::size_t krylov_dim = 60;      ///< d, Krylov subspace cap
  std::size_t eigs_per_shift = 6;   ///< n_theta
};

/// Result of one S invocation.
struct SingleShiftResult {
  la::ComplexVector eigenvalues;  ///< all eigenvalues in C(theta, radius)
  double radius = 0.0;            ///< certified clean radius
  std::size_t restarts = 0;
  std::size_t matvecs = 0;
  /// Shift-invert operators built locally (0 when a factory supplies
  /// them — the factory's owner counts its own builds).
  std::size_t factorizations = 0;
};

/// Run S(j*omega_center, rho0) on the realization's Hamiltonian with
/// at least `min_restarts` restarts.  `rng` supplies the random restart
/// vectors; pass a stream keyed by the shift id for
/// scheduling-independent reproducibility.  The shift-invert operator
/// is requested through `factory` (e.g. an
/// engine::ShiftFactorizationCache); an empty factory builds it
/// directly.
[[nodiscard]] SingleShiftResult single_shift_iteration(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, const SingleShiftOptions& options,
    std::size_t min_restarts, util::Rng& rng,
    const hamiltonian::ShiftInvertFactory& factory);

}  // namespace phes::core
