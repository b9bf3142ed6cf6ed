#pragma once
// Spectrum post-processing for full Hamiltonian spectra (test oracle,
// header-only): the imaginary-axis frequencies of a dense spectrum,
// which the tests compare against the solver's crossing set, and the
// Hamiltonian quadruple symmetry a correct assembly must show.

#include <algorithm>
#include <cmath>
#include <complex>

#include "phes/la/types.hpp"

namespace phes::test {

/// Extracts the sorted positive frequencies w of (numerically) purely
/// imaginary eigenvalues lambda = j*w from a spectrum.  An eigenvalue
/// counts as imaginary when |Re| <= tol_rel * max(|lambda|, scale).
/// The +-j*w pair contributes a single entry; near-duplicates within
/// tol_rel * scale collapse to one.
inline la::RealVector extract_imaginary_frequencies(
    const la::ComplexVector& spectrum, double tol_rel, double scale) {
  la::RealVector freqs;
  for (const la::Complex& lambda : spectrum) {
    const double mag = std::max(std::abs(lambda), scale);
    if (std::abs(lambda.real()) <= tol_rel * mag && lambda.imag() >= 0.0) {
      freqs.push_back(lambda.imag());
    }
  }
  std::sort(freqs.begin(), freqs.end());
  // Collapse near-duplicates (conjugate partners land at the same w;
  // clustered Ritz copies may differ in the last digits).
  la::RealVector unique;
  for (double w : freqs) {
    if (unique.empty() ||
        w - unique.back() > tol_rel * std::max(scale, unique.back())) {
      unique.push_back(w);
    }
  }
  return unique;
}

/// True when for every lambda in the spectrum, -conj(lambda) is also
/// present (to tolerance) — the Hamiltonian quadruple symmetry.
inline bool has_hamiltonian_symmetry(const la::ComplexVector& spectrum,
                                     double tol) {
  for (const la::Complex& lambda : spectrum) {
    const la::Complex mirror = -std::conj(lambda);
    double best = 1e300;
    for (const la::Complex& other : spectrum) {
      best = std::min(best, std::abs(other - mirror));
    }
    if (best > tol * std::max(1.0, std::abs(lambda))) return false;
  }
  return true;
}

}  // namespace phes::test
