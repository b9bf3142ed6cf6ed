#pragma once
// Search-band upper bound (paper Sec. IV-A): omega_max is the magnitude
// of the largest Hamiltonian eigenvalue, obtained with a plain Arnoldi
// iteration on M itself (no shift-and-invert).

#include <cstdint>

#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"

namespace phes::core {

/// Estimate plus its cost, so callers can account for the Arnoldi work
/// it spends.
struct LambdaMaxEstimate {
  double omega_max = 0.0;
  std::size_t matvecs = 0;
};

/// Estimate (a safe upper bound of) the Hamiltonian spectral radius,
/// reporting the matrix-vector products spent: the largest Ritz value
/// of 3 Arnoldi runs of dimension 40, at least the largest pole
/// magnitude, times 1.05 (Ritz values underestimate |lambda|max).
[[nodiscard]] LambdaMaxEstimate estimate_lambda_max(
    const macromodel::SimoRealization& realization, util::Rng& rng);

}  // namespace phes::core
