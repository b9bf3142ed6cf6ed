#pragma once
// Sampling-based passivity check (test oracle, header-only), in the
// spirit of the adaptive sampling schemes of De Stefano et al. (arXiv
// 2011.02789): scan sigma_max(H(jw)) on a uniform grid and bisect each
// grid interval where it crosses 1.  Independent of the Hamiltonian
// machinery, so the tests use it to cross-check the algebraic
// characterization.  Unlike the Hamiltonian test it can miss
// violations between samples — which is exactly why the paper
// advocates the algebraic route.

#include <cmath>
#include <cstddef>

#include "phes/la/svd.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/check.hpp"

namespace phes::test {

struct SweepOptions {
  double omega_min = 0.0;
  double omega_max = 0.0;  ///< must be > omega_min
  std::size_t initial_grid = 128;
};

struct SweepResult {
  bool passive = false;
  /// Largest sigma_max sampled (grid and bisection points alike), and
  /// the frequency it was sampled at.
  double worst_sigma = 0.0;
  double worst_omega = 0.0;
  /// Estimated unit-crossing frequencies (bisection-refined).
  la::RealVector estimated_crossings;
};

/// Passivity bound on sigma_max: a scattering model is passive where
/// every singular value of H(jw) stays at or below 1.
inline constexpr double kUnitBound = 1.0;
/// Halvings per bracketed crossing: shrinks a grid interval by 2^-36.
inline constexpr std::size_t kBisectionHalvings = 36;

/// Scan sigma_max(H(jw)) on a grid, bisect each sign change of
/// (sigma_max - 1) to locate the crossings.
inline SweepResult sampling_passivity_check(
    const macromodel::SimoRealization& realization,
    const SweepOptions& opt) {
  util::check(opt.omega_max > opt.omega_min,
              "sampling_passivity_check: empty band");
  util::check(opt.initial_grid >= 2,
              "sampling_passivity_check: need >= 2 grid points");

  SweepResult res;
  auto sigma_at = [&](double w) {
    const double sigma = la::complex_spectral_norm(realization.eval(w));
    if (sigma > res.worst_sigma) {
      res.worst_sigma = sigma;
      res.worst_omega = w;
    }
    return sigma;
  };

  const std::size_t n = opt.initial_grid;
  la::RealVector omega(n), sigma(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(n - 1);
    omega[i] = opt.omega_min + t * (opt.omega_max - opt.omega_min);
    sigma[i] = sigma_at(omega[i]);
  }

  for (std::size_t i = 0; i + 1 < n; ++i) {
    const bool lo_above = sigma[i] > kUnitBound;
    const bool hi_above = sigma[i + 1] > kUnitBound;
    if (lo_above == hi_above) continue;
    // Bisect the sign change of sigma_max - 1.
    double a = omega[i], b = omega[i + 1];
    double fa = sigma[i];
    for (std::size_t step = 0; step < kBisectionHalvings; ++step) {
      const double mid = 0.5 * (a + b);
      const double fm = sigma_at(mid);
      if ((fa > kUnitBound) == (fm > kUnitBound)) {
        a = mid;
        fa = fm;
      } else {
        b = mid;
      }
    }
    res.estimated_crossings.push_back(0.5 * (a + b));
  }

  res.passive = res.worst_sigma <= kUnitBound;
  return res;
}

}  // namespace phes::test
