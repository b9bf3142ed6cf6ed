#pragma once
// Vector Fitting (Gustavsen-Semlyen [1]) — the rational-approximation
// substrate that produces the macromodels the eigensolver characterizes
// (paper Sec. II: models are "identified from tabulated frequency
// responses ... using rational curve fitting").
//
// Implemented column-wise (multi-SIMO): each column of the p x p sampled
// transfer matrix is fitted with its own pole set shared by the p
// entries of that column, exactly matching the structured realization
// of paper Eq. 2.  Per column:
//   1. sigma iteration: the linear LS
//        sum_b r_b phi_b(s) + d  -  H(s) sum_b r~_b phi_b(s)  =  H(s)
//      over K samples, with partial-fraction basis phi_b (nb functions)
//      over the current poles;
//   2. pole relocation: new poles = eig(A_p - b c~^T) (zeros of sigma);
//   3. stability enforcement: flip any Re >= 0 pole into the left
//      half-plane;
//   4. iterate, then fix the poles and solve the final residue problem.
//
// Step 1 is solved in the "fast VF" form of Deschrijver, Mrozowski,
// Dhaene and De Zutter, "Macromodeling of multiport systems using a
// fast implementation of the vector fitting method", IEEE MWCL 18(6),
// 2008 (vectfit3's default).  Output i's residues and d are its own
// unknowns; only the sigma coefficients r~ are shared.  So each output
// i QR-factors its own 2K x (2nb + 2) block [Phi, 1 | -H_i Phi | H_i],
// which eliminates its residues exactly, and keeps R's rows
// nb+1..2nb: the nb x nb sigma block and, in the last column, the
// matching part of Q^T H_i.  The p blocks stack into one p nb x nb LS
// for r~.  That is the minimizer of the dense 2Kp x (p(nb+1) + nb)
// system, at p small QRs instead of one large one; only rounding
// differs.  Every output needs 2K >= 2nb + 2 rows, so a fit takes at
// least num_poles + 1 samples.
//
// The basis is evaluated once per sample and iteration and shared by
// all outputs; the final residue solve factors [Phi, 1] once for all p
// outputs.

#include <cstddef>
#include <span>
#include <vector>

#include "phes/la/types.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/samples.hpp"

namespace phes::vf {

/// Largest accepted VectorFittingOptions::iterations.  A column whose
/// poles never settle runs every requested sweep, and a fit cannot be
/// cancelled mid-stage, so the sweep count is bounded at the input:
/// 8x the default, above every value the repo uses.
inline constexpr std::size_t kMaxIterations = 100;

struct VectorFittingOptions {
  std::size_t num_poles = 16;   ///< states per column (pairs count twice)
  /// Pole-relocation sweeps, 1..kMaxIterations; a column stops early
  /// once its poles stop moving.
  std::size_t iterations = 12;
  /// Worker threads for the independent per-column fits (columns carry
  /// disjoint pole sets and residues, so they parallelize exactly).
  /// 0 or 1 => serial; the pipeline substitutes its per-job solver
  /// thread budget for 0, composing with pipeline::plan_parallelism.
  std::size_t threads = 0;
};

struct VectorFittingResult {
  macromodel::PoleResidueModel model;
  double rms_error = 0.0;          ///< overall relative RMS fit error
  std::vector<double> column_rms;  ///< per-column relative RMS
  std::size_t iterations_used = 0;
};

/// Fit a rational macromodel to tabulated frequency samples.
/// Throws std::invalid_argument on inconsistent samples or options
/// (including iterations outside 1..kMaxIterations).
[[nodiscard]] VectorFittingResult vector_fit(
    const macromodel::FrequencySamples& samples,
    const VectorFittingOptions& options);

namespace detail {

/// One sigma-iteration solve for column `col`: `phi` holds the basis
/// over the current poles, phi[m * nb + b] = phi_b(j omega_m); returns
/// the nb sigma coefficients r~.
using SigmaSolve = la::RealVector (*)(
    const macromodel::FrequencySamples& samples, std::size_t col,
    std::span<const la::Complex> phi, std::size_t nb);

/// vector_fit with the sigma solve supplied: vector_fit passes the
/// fast solve of the file comment, tests pass the dense oracle.
[[nodiscard]] VectorFittingResult vector_fit_with(
    const macromodel::FrequencySamples& samples,
    const VectorFittingOptions& options, SigmaSolve sigma_solve);

}  // namespace detail

}  // namespace phes::vf
