#pragma once
// Passivity enforcement by iterative first-order singular-value
// perturbation of the residue matrix C (the standard scheme of
// [8], [9], [17], which the paper's title refers to and whose inner
// loop is exactly what the fast parallel characterization accelerates).
//
// Each iteration:
//  1. characterize: run the Hamiltonian eigensolver -> crossings ->
//     violation bands with their peaks;
//  2. linearize: at each band's peak frequency w* (the min-norm step
//     flattens the whole hump, so one sample per band suffices), for
//     each singular value sigma_i > 1 with triplet (u_i, sigma_i, v_i),
//       delta sigma_i = Re( u_i^H  DeltaC  Phi(j w*) v_i ),
//     Phi(s) = (sI - A)^{-1} B, which is linear in DeltaC;
//  3. correct: the minimum-norm DeltaC driving each violating sigma_i
//     to 1 - margin solves a small dual Gram system (margin 2e-3: the
//     buffer keeps the next characterization from finding grazing
//     crossings again).  The norm is damping-weighted,
//     sum_j ||DeltaC(:, j)||^2 / |Re p_j| over the states j: up to a
//     constant, the diagonal of each state's
//     controllability Gramian, so an energy-norm step (Grivet-Talocia,
//     arXiv 1706.06395).  The Frobenius norm prices a residue change
//     the same at every pole, although near a pole it moves the
//     response by about 1/|Re p| times as much.  A fit with more poles
//     than the data has states leaves surplus poles at relative
//     damping ~1e-4; a Frobenius step excites them, and enforcement
//     then ping-pongs between peaks until its rounds run out.  In the
//     dual Gram sums and in the step, state column j is scaled by
//     |alpha| of its block;
//  4. apply DeltaC to the realization (poles untouched: stability is
//     preserved by construction) and repeat until the Hamiltonian test
//     reports no imaginary eigenvalues.

#include <cstddef>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/passivity/characterization.hpp"

namespace phes::passivity {

/// Perturbation rounds enforce_passivity runs at most.
inline constexpr std::size_t kMaxEnforcementRounds = 25;

struct EnforcementIterate {
  std::size_t violation_bands = 0;
  double worst_sigma = 0.0;
  double delta_c_norm = 0.0;  ///< Frobenius norm of this step's DeltaC
  /// This round's characterization cost (warm-started rounds do fewer
  /// matvecs and hit the factorization cache).
  std::size_t solver_matvecs = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  bool warm_started = false;
};

struct EnforcementResult {
  bool success = false;
  std::size_t iterations = 0;
  std::vector<EnforcementIterate> history;
  /// ||C_final - C_initial||_F / ||C_initial||_F — model perturbation.
  double relative_model_change = 0.0;
  // Aggregate characterization cost across all rounds.
  std::size_t characterizations = 0;
  std::size_t total_matvecs = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

/// Session-based enforcement: perturb the residues of the model owned
/// by `session` until passive (or kMaxEnforcementRounds run out).  Each
/// round re-characterizes through the session with `solver_options`,
/// so rounds 2..k are warm-started from the previous crossing set and
/// the final confirmation re-uses the cached factorizations.  Throws
/// std::invalid_argument unless sigma_max(D) < 1 - margin.  The
/// perturbed model stays in the session (session.realization()).
[[nodiscard]] EnforcementResult enforce_passivity(
    engine::SolverSession& session,
    const core::SolverOptions& solver_options);

}  // namespace phes::passivity
