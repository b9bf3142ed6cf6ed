#include "phes/core/lambda_max.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/la/eig.hpp"

namespace phes::core {

namespace {

constexpr std::size_t kKrylovDim = 40;
constexpr std::size_t kRestarts = 3;
// Ritz values underestimate |lambda|max.
constexpr double kSafetyFactor = 1.05;

}  // namespace

LambdaMaxEstimate estimate_lambda_max(
    const macromodel::SimoRealization& realization, util::Rng& rng) {
  const hamiltonian::ImplicitHamiltonianOp op(realization);
  const std::size_t dim = op.dim();
  const std::size_t d = std::min(kKrylovDim, dim - 1);

  LambdaMaxEstimate est;
  double best = 0.0;
  for (std::size_t r = 0; r < kRestarts; ++r) {
    const auto v0 = random_start_vector(dim, rng);
    const auto ar = arnoldi(op, v0, d, {});
    est.matvecs += ar.matvecs;
    // Only |Ritz value| is read: eigenvalues of the square projection
    // H_d without eigenvectors (the values are the same bits either
    // way).
    const std::size_t steps = ar.steps;
    la::ComplexMatrix hd(steps, steps);
    for (std::size_t i = 0; i < steps; ++i) {
      for (std::size_t j = 0; j < steps; ++j) hd(i, j) = ar.h(i, j);
    }
    for (const Complex& mu : la::hessenberg_eig(std::move(hd), false).values) {
      best = std::max(best, std::abs(mu));
    }
  }
  // Safeguard floor: unit-threshold crossings can only occur where the
  // dynamic part of H(jw) is active, i.e. within the pole band, so
  // never search less than the largest pole magnitude.
  best = std::max(best, realization.max_pole_magnitude());
  est.omega_max = best * kSafetyFactor;
  return est;
}

}  // namespace phes::core
