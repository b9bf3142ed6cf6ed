#include "phes/vf/vector_fitting.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "phes/la/blas.hpp"
#include "phes/la/qr.hpp"
#include "phes/la/schur.hpp"
#include "phes/util/check.hpp"
#include "phes/util/threads.hpp"

namespace phes::vf {

namespace {

using la::Complex;
using la::ComplexVector;
using la::RealMatrix;
using la::RealVector;

// Initial poles: -kInitialPoleDamping * beta +- j beta, beta log-spaced
// over the sample band.
constexpr double kInitialPoleDamping = 0.01;

// A column stops iterating once the largest relative pole movement
// drops below this threshold.
constexpr double kPoleTol = 1e-8;

// Pole set during the iteration: reals (Im == 0) and pair
// representatives (Im > 0).  The basis size equals
// n_real + 2 * n_pairs.
struct PoleSet {
  std::vector<double> real_poles;
  std::vector<Complex> pair_poles;  // Im > 0

  [[nodiscard]] std::size_t basis_size() const noexcept {
    return real_poles.size() + 2 * pair_poles.size();
  }
};

// Initial poles: log-spaced weakly damped pairs over the band.
PoleSet initial_poles(std::size_t num_poles, double w_lo, double w_hi) {
  PoleSet set;
  const std::size_t n_pairs = num_poles / 2;
  const double lo = std::max(w_lo, 1e-6 * w_hi);
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const double t = n_pairs == 1
                         ? 0.5
                         : static_cast<double>(i) /
                               static_cast<double>(n_pairs - 1);
    const double beta = lo * std::pow(w_hi / lo, t);
    set.pair_poles.emplace_back(-kInitialPoleDamping * beta, beta);
  }
  if (num_poles % 2 == 1) {
    set.real_poles.push_back(-std::sqrt(lo * w_hi));
  }
  return set;
}

// Evaluates the partial-fraction basis at s = j*w into `phi`
// (basis_size complex values).  Layout: reals first, then for each
// pair the two functions [1/(s-a) + 1/(s-a*)], [j/(s-a) - j/(s-a*)].
void eval_basis(const PoleSet& poles, double w, Complex* phi) {
  const Complex s(0.0, w);
  std::size_t b = 0;
  for (double a : poles.real_poles) phi[b++] = 1.0 / (s - a);
  for (const Complex& a : poles.pair_poles) {
    const Complex f1 = 1.0 / (s - a);
    const Complex f2 = 1.0 / (s - std::conj(a));
    phi[b++] = f1 + f2;
    phi[b++] = Complex(0.0, 1.0) * (f1 - f2);
  }
}

// Pole relocation: zeros of sigma(s) = 1 + sum r~_b phi_b(s), computed
// as eig(A_p - b_p c~^T) (vectfit3 formulation), with any Re >= 0 zero
// flipped into the left half-plane.
PoleSet relocate_poles(const PoleSet& poles, const RealVector& sigma_coeffs) {
  const std::size_t nb = poles.basis_size();
  RealMatrix a(nb, nb);
  RealVector b(nb, 0.0);
  std::size_t idx = 0;
  for (double p : poles.real_poles) {
    a(idx, idx) = p;
    b[idx] = 1.0;
    idx += 1;
  }
  for (const Complex& p : poles.pair_poles) {
    a(idx, idx) = p.real();
    a(idx, idx + 1) = p.imag();
    a(idx + 1, idx) = -p.imag();
    a(idx + 1, idx + 1) = p.real();
    b[idx] = 2.0;
    idx += 2;
  }
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      a(i, j) -= b[i] * sigma_coeffs[j];
    }
  }
  const la::ComplexVector zeros = la::real_eigenvalues(std::move(a));

  PoleSet out;
  const double imag_tol = 1e-9;
  double scale = 0.0;
  for (const Complex& z : zeros) scale = std::max(scale, std::abs(z));
  for (const Complex& z : zeros) {
    Complex pole = z;
    if (pole.real() >= 0.0) {
      pole = Complex(-std::max(pole.real(), 1e-12 * scale), pole.imag());
    }
    if (std::abs(pole.imag()) <= imag_tol * std::max(scale, 1.0)) {
      out.real_poles.push_back(pole.real());
    } else if (pole.imag() > 0.0) {
      out.pair_poles.push_back(pole);
    }
    // Negative-imag members are the implicit conjugates.
  }
  return out;
}

// Largest relative distance between matched poles of two sets (rough:
// compares sorted-by-imag lists; good enough as a stop criterion).
double pole_movement(const PoleSet& a, const PoleSet& b) {
  std::vector<Complex> pa, pb;
  for (double p : a.real_poles) pa.emplace_back(p, 0.0);
  for (const Complex& p : a.pair_poles) pa.push_back(p);
  for (double p : b.real_poles) pb.emplace_back(p, 0.0);
  for (const Complex& p : b.pair_poles) pb.push_back(p);
  if (pa.size() != pb.size()) return 1e300;
  double scale = 1e-300;
  for (const Complex& p : pa) scale = std::max(scale, std::abs(p));
  double worst = 0.0;
  for (const Complex& p : pa) {
    double best = 1e300;
    for (const Complex& q : pb) best = std::min(best, std::abs(p - q));
    worst = std::max(worst, best);
  }
  return worst / scale;
}

// The fast sigma solve of vector_fitting.hpp (a detail::SigmaSolve).
RealVector fast_sigma_solve(const macromodel::FrequencySamples& samples,
                            std::size_t col, std::span<const Complex> phi,
                            std::size_t nb) {
  const std::size_t p = samples.ports();
  const std::size_t k_samples = samples.count();
  // Output i's block [Phi, 1 | -H_i Phi | H_i]: its residues and d
  // (the first nb + 1 columns) are output i's own unknowns, so QR
  // eliminates them exactly; R's rows nb+1..2nb then hold the sigma
  // block and, in the last column, the matching tail of Q^T H_i.
  const std::size_t width = 2 * nb + 2;
  RealMatrix stacked(p * nb, nb);
  RealVector stacked_rhs(p * nb);
  for (std::size_t i = 0; i < p; ++i) {
    RealMatrix a(2 * k_samples, width);
    for (std::size_t m = 0; m < k_samples; ++m) {
      const Complex h = samples.h[m](i, col);
      const Complex* const phi_m = phi.data() + m * nb;
      double* const row_re = a.row_ptr(2 * m);
      double* const row_im = a.row_ptr(2 * m + 1);
      for (std::size_t b = 0; b < nb; ++b) {
        row_re[b] = phi_m[b].real();
        row_im[b] = phi_m[b].imag();
        const Complex hp = -h * phi_m[b];
        row_re[nb + 1 + b] = hp.real();
        row_im[nb + 1 + b] = hp.imag();
      }
      row_re[nb] = 1.0;  // d term (real)
      row_im[nb] = 0.0;
      row_re[width - 1] = h.real();
      row_im[width - 1] = h.imag();
    }
    const RealMatrix r = la::QrFactorization(std::move(a)).r();
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t b = 0; b < nb; ++b) {
        stacked(i * nb + j, b) = r(nb + 1 + j, nb + 1 + b);
      }
      stacked_rhs[i * nb + j] = r(nb + 1 + j, width - 1);
    }
  }
  return la::least_squares(std::move(stacked), std::move(stacked_rhs));
}

}  // namespace

namespace detail {

VectorFittingResult vector_fit_with(
    const macromodel::FrequencySamples& samples,
    const VectorFittingOptions& opt, SigmaSolve sigma_solve) {
  samples.check_consistency();
  const std::size_t p = samples.ports();
  const std::size_t k_samples = samples.count();
  util::check(p > 0, "vector_fit: empty samples");
  util::check(opt.num_poles >= 2, "vector_fit: need at least two poles");
  // Each output's sigma block is 2K x (2nb + 2) with nb = num_poles at
  // the start (relocation never grows the basis); QR needs rows >= cols,
  // so K >= nb + 1 whatever the port count.
  const std::size_t min_samples = opt.num_poles + 1;
  util::check(k_samples >= min_samples,
              "vector_fit: " + std::to_string(k_samples) +
                  " samples are too few for a " +
                  std::to_string(opt.num_poles) + "-pole, " +
                  std::to_string(p) + "-port fit (need at least " +
                  std::to_string(min_samples) + ")");
  util::check(opt.iterations >= 1, "vector_fit: need >= 1 iteration");
  util::check(opt.iterations <= kMaxIterations,
              "vector_fit: " + std::to_string(opt.iterations) +
                  " iterations exceed the limit of " +
                  std::to_string(kMaxIterations));

  const double w_lo = samples.omega.front();
  const double w_hi = samples.omega.back();

  RealMatrix d(p, p);
  std::vector<macromodel::PoleResidueColumn> columns(p);
  std::vector<double> column_rms(p, 0.0);
  std::vector<std::size_t> iterations_by_col(p, 0);

  // Columns are fitted independently (each owns its pole set, residues,
  // and the d column), so they run verbatim on worker threads.
  const auto fit_column = [&](std::size_t col) {
    std::size_t iterations_used = 0;
    PoleSet poles = initial_poles(opt.num_poles, w_lo, w_hi);

    // ---- sigma iterations: relocate poles -----------------------------
    for (std::size_t it = 0; it < opt.iterations; ++it) {
      const std::size_t nb = poles.basis_size();
      ComplexVector phi(k_samples * nb);
      for (std::size_t m = 0; m < k_samples; ++m) {
        eval_basis(poles, samples.omega[m], phi.data() + m * nb);
      }
      const RealVector sigma_coeffs = sigma_solve(samples, col, phi, nb);

      PoleSet new_poles = relocate_poles(poles, sigma_coeffs);
      if (new_poles.basis_size() != poles.basis_size()) {
        // Pole count drifted (conjugate-pair collapse); keep iterating
        // with whatever structure came back.
        poles = std::move(new_poles);
        iterations_used = std::max(iterations_used, it + 1);
        continue;
      }
      const double movement = pole_movement(poles, new_poles);
      poles = std::move(new_poles);
      iterations_used = std::max(iterations_used, it + 1);
      if (movement < kPoleTol) break;
    }

    // ---- final residue identification (sigma == 1) --------------------
    const std::size_t nb = poles.basis_size();
    RealMatrix basis(2 * k_samples, nb + 1);
    ComplexVector phi(k_samples * nb);
    for (std::size_t m = 0; m < k_samples; ++m) {
      Complex* const phi_m = phi.data() + m * nb;
      eval_basis(poles, samples.omega[m], phi_m);
      for (std::size_t b = 0; b < nb; ++b) {
        basis(2 * m, b) = phi_m[b].real();
        basis(2 * m + 1, b) = phi_m[b].imag();
      }
      basis(2 * m, nb) = 1.0;
      basis(2 * m + 1, nb) = 0.0;
    }
    const la::QrFactorization qr(basis);

    macromodel::PoleResidueColumn& out_col = columns[col];
    out_col.real_terms.clear();
    out_col.complex_terms.clear();
    for (double pole : poles.real_poles) {
      out_col.real_terms.push_back({pole, RealVector(p, 0.0)});
    }
    for (const Complex& pole : poles.pair_poles) {
      out_col.complex_terms.push_back({pole, ComplexVector(p, Complex{})});
    }

    double err_sq = 0.0, ref_sq = 0.0;
    std::vector<RealVector> solutions(p);
    for (std::size_t i = 0; i < p; ++i) {
      RealVector rhs(2 * k_samples);
      for (std::size_t m = 0; m < k_samples; ++m) {
        rhs[2 * m] = samples.h[m](i, col).real();
        rhs[2 * m + 1] = samples.h[m](i, col).imag();
      }
      solutions[i] = qr.solve(rhs);
      // Residue layout matches eval_basis: reals, then (x1, x2) pairs.
      std::size_t b = 0;
      for (auto& term : out_col.real_terms) term.residue[i] = solutions[i][b++];
      for (auto& term : out_col.complex_terms) {
        term.residue[i] = Complex(solutions[i][b], solutions[i][b + 1]);
        b += 2;
      }
      d(i, col) = solutions[i][nb];
      // Fit error accumulation.
      for (std::size_t m = 0; m < k_samples; ++m) {
        const Complex* const phi_m = phi.data() + m * nb;
        Complex fit(d(i, col), 0.0);
        for (std::size_t bb = 0; bb < nb; ++bb) {
          fit += solutions[i][bb] * phi_m[bb];
        }
        err_sq += std::norm(fit - samples.h[m](i, col));
        ref_sq += std::norm(samples.h[m](i, col));
      }
    }
    column_rms[col] = ref_sq > 0.0 ? std::sqrt(err_sq / ref_sq)
                                   : std::sqrt(err_sq);
    iterations_by_col[col] = iterations_used;
  };

  util::parallel_for(opt.threads, p, [&](std::size_t col, std::size_t) {
    fit_column(col);
  });
  const std::size_t iterations_used =
      *std::max_element(iterations_by_col.begin(), iterations_by_col.end());

  VectorFittingResult result{
      macromodel::PoleResidueModel(std::move(d), std::move(columns)), 0.0,
      std::move(column_rms), iterations_used};
  double total = 0.0;
  for (double e : result.column_rms) total += e * e;
  result.rms_error = std::sqrt(total / static_cast<double>(p));
  return result;
}

}  // namespace detail

VectorFittingResult vector_fit(const macromodel::FrequencySamples& samples,
                               const VectorFittingOptions& opt) {
  return detail::vector_fit_with(samples, opt, &fast_sigma_solve);
}

}  // namespace phes::vf
