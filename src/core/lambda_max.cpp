#include "phes/core/lambda_max.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/la/eig.hpp"
#include "phes/util/threads.hpp"

namespace phes::core {

namespace {

constexpr std::size_t kEstimateDim = 40;
constexpr std::size_t kRestarts = 3;
// Ritz values underestimate |lambda|max.
constexpr double kSafetyFactor = 1.05;

}  // namespace

LambdaMaxEstimate estimate_lambda_max(
    const macromodel::SimoRealization& realization, util::Rng& rng,
    std::size_t threads) {
  const hamiltonian::ImplicitHamiltonianOp op(realization);
  const std::size_t dim = op.dim();
  const std::size_t d = std::min(kEstimateDim, dim - 1);

  // Every start vector comes off rng before any run starts.
  std::array<ComplexVector, kRestarts> starts;
  for (auto& v0 : starts) v0 = random_start_vector(dim, rng);
  std::array<double, kRestarts> run_max{};
  std::array<std::size_t, kRestarts> run_matvecs{};
  util::parallel_for(std::min(threads, kRestarts), kRestarts,
                     [&](std::size_t r, std::size_t) {
    const auto ar = arnoldi(op, starts[r], d, {});
    run_matvecs[r] = ar.matvecs;
    // Only |Ritz value| is read: eigenvalues of the square projection
    // H_d without eigenvectors (the values are the same bits either
    // way).
    const std::size_t steps = ar.steps;
    la::ComplexMatrix hd(steps, steps);
    for (std::size_t i = 0; i < steps; ++i) {
      for (std::size_t j = 0; j < steps; ++j) hd(i, j) = ar.h(i, j);
    }
    for (const Complex& mu : la::hessenberg_eig(std::move(hd), false).values) {
      run_max[r] = std::max(run_max[r], std::abs(mu));
    }
  });
  LambdaMaxEstimate est;
  est.matvecs = std::accumulate(run_matvecs.begin(), run_matvecs.end(),
                                std::size_t{0});
  // Safeguard floor: unit-threshold crossings can only occur where the
  // dynamic part of H(jw) is active, i.e. within the pole band, so
  // never search less than the largest pole magnitude.
  const double best = std::max(
      *std::max_element(run_max.begin(), run_max.end()),
      realization.max_pole_magnitude());
  est.omega_max = best * kSafetyFactor;
  return est;
}

}  // namespace phes::core
