#include "phes/passivity/characterization.hpp"

#include <algorithm>
#include <cmath>

#include "phes/la/svd.hpp"

namespace phes::passivity {

namespace {

// Coarse sigma_max samples per band, before the peak refinement.
constexpr std::size_t kSamplesPerBand = 24;

double sigma_max_at(const macromodel::SimoRealization& r, double omega) {
  return la::complex_spectral_norm(r.eval(omega));
}

// Golden-section search for the maximum of sigma_max on [lo, hi].
double golden_peak(const macromodel::SimoRealization& r, double lo,
                   double hi, double* peak_sigma) {
  constexpr double kInvPhi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = sigma_max_at(r, x1);
  double f2 = sigma_max_at(r, x2);
  for (int it = 0; it < 40 && (b - a) > 1e-10 * std::max(1.0, hi); ++it) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = sigma_max_at(r, x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = sigma_max_at(r, x1);
    }
  }
  const double x = 0.5 * (a + b);
  *peak_sigma = sigma_max_at(r, x);
  return x;
}

}  // namespace

std::vector<ViolationBand> classify_bands(
    const macromodel::SimoRealization& realization,
    const la::RealVector& crossings) {
  std::vector<ViolationBand> bands;
  if (crossings.empty()) return bands;

  // Segment boundaries: [0, w1], [w1, w2], ..., [wk, 1.5 wk].
  // Beyond the last crossing sigma_max tends to sigma_max(D) < 1, so the
  // unbounded tail is compliant by construction; the extra segment
  // guards against a peak just above the last crossing.
  std::vector<double> edges;
  edges.push_back(0.0);
  edges.insert(edges.end(), crossings.begin(), crossings.end());
  edges.push_back(crossings.back() * 1.5 + 1e-12);

  for (std::size_t s = 0; s + 1 < edges.size(); ++s) {
    const double lo = edges[s], hi = edges[s + 1];
    if (hi - lo <= 1e-14 * std::max(1.0, hi)) continue;
    // Classify by the worst of a coarse scan (a single midpoint sample
    // can miss a multi-hump band interior).
    double coarse_peak = 0.0, coarse_at = 0.5 * (lo + hi);
    for (std::size_t i = 0; i < kSamplesPerBand; ++i) {
      const double t = (static_cast<double>(i) + 0.5) /
                       static_cast<double>(kSamplesPerBand);
      const double w = lo + t * (hi - lo);
      const double sigma = sigma_max_at(realization, w);
      if (sigma > coarse_peak) {
        coarse_peak = sigma;
        coarse_at = w;
      }
    }
    if (coarse_peak <= 1.0) continue;  // compliant segment

    ViolationBand band;
    band.omega_lo = lo;
    band.omega_hi = hi;
    // Refine the peak within one coarse cell around the best sample.
    const double cell = (hi - lo) / static_cast<double>(kSamplesPerBand);
    const double ref_lo = std::max(lo, coarse_at - cell);
    const double ref_hi = std::min(hi, coarse_at + cell);
    band.omega_peak = golden_peak(realization, ref_lo, ref_hi,
                                  &band.sigma_peak);
    if (band.sigma_peak < coarse_peak) {
      band.omega_peak = coarse_at;
      band.sigma_peak = coarse_peak;
    }
    bands.push_back(band);
  }
  return bands;
}

PassivityReport characterize_passivity(
    const macromodel::SimoRealization& realization,
    const core::SolverOptions& solver_options) {
  PassivityReport report;
  report.solver = core::solve(realization, solver_options);
  report.crossings = report.solver.crossings;
  report.bands = classify_bands(realization, report.crossings);
  report.passive = report.bands.empty();
  return report;
}

}  // namespace phes::passivity
