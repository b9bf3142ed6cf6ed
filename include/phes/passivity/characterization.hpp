#pragma once
// Passivity characterization: from the Hamiltonian crossing set Omega to
// a full qualification of the model (paper Sec. II).
//
// The crossings partition the frequency axis into segments where the
// singular values of H(jw) stay on one side of 1; sampling sigma_max at
// one interior point per segment classifies each as compliant or
// violating, and the violating ones are searched for their worst peak
// (the input the enforcement step needs).

#include <vector>

#include "phes/core/solver.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::engine {
class SolverSession;
}  // namespace phes::engine

namespace phes::passivity {

/// One frequency band where sigma_max(H(jw)) > 1.
struct ViolationBand {
  double omega_lo = 0.0;   ///< lower crossing (0 if the band starts at DC)
  double omega_hi = 0.0;   ///< upper crossing
  double omega_peak = 0.0; ///< location of the worst violation
  double sigma_peak = 0.0; ///< sigma_max at omega_peak (> 1)
};

/// Full passivity verdict.
struct PassivityReport {
  bool passive = false;
  la::RealVector crossings;          ///< Omega (positive frequencies)
  std::vector<ViolationBand> bands;  ///< empty iff passive
  core::SolverResult solver;         ///< the eigensolver diagnostics
};

/// Classify the bands delimited by `crossings` by sampling sigma_max at
/// 24 points per band, then locate each violating band's peak by
/// golden-section refinement around the worst sample.
[[nodiscard]] std::vector<ViolationBand> classify_bands(
    const macromodel::SimoRealization& realization,
    const la::RealVector& crossings);

/// Session-based characterization: run the eigensolver through
/// `session` (shift-factorization cache + warm-started scheduling),
/// then classify the bands.  The enforcement loop and the pipeline
/// thread one session through every characterize/enforce/verify stage
/// of a job.
[[nodiscard]] PassivityReport characterize_passivity(
    engine::SolverSession& session,
    const core::SolverOptions& solver_options);

}  // namespace phes::passivity
