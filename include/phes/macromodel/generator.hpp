#pragma once
// Synthetic macromodel generation.
//
// The paper evaluates on 12 proprietary interconnect macromodels (IBM
// packaging).  Those are not available, so this generator builds
// surrogate scattering macromodels with the same knobs that drive the
// eigensolver's cost: dynamic order n, port count p, pole spread over
// the band, damping (how close Hamiltonian eigenvalues sit to the
// imaginary axis), and the peak gain max_w sigma_max(H(jw)) which
// controls whether/how many unit-singular-value crossings exist.

#include <cstdint>

#include "phes/macromodel/pole_residue.hpp"

namespace phes::macromodel {

/// Knobs for make_synthetic_model().
struct SyntheticModelSpec {
  std::size_t ports = 4;
  std::size_t states = 100;  ///< requested total order n (met exactly)
  double omega_min = 1.0;    ///< lower edge of the resonance band (rad/s)
  double omega_max = 10.0;   ///< upper edge of the resonance band (rad/s)
  double min_damping = 0.005;  ///< zeta range for complex pole pairs
  double max_damping = 0.08;
  double real_pole_fraction = 0.12;  ///< share of 1x1 blocks (approx.)
  /// Peak of sigma_max(H(jw)) after residue scaling.  > 1 makes the
  /// model non-passive with unit-threshold crossings; < 1 keeps it
  /// passive but (when close to 1) with Hamiltonian eigenvalues near
  /// the imaginary axis — the expensive passive case of paper Table I
  /// (Cases 4 and 6).
  double target_peak_gain = 1.05;
  std::size_t gain_tuning_grid = 400;  ///< sweep points used for scaling
  double d_norm = 0.2;                 ///< sigma_max(D), must be < 1
  std::uint64_t seed = 1;
};

/// Build a random stable scattering macromodel per the spec.
[[nodiscard]] PoleResidueModel make_synthetic_model(
    const SyntheticModelSpec& spec);

}  // namespace phes::macromodel
