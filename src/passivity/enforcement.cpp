#include "phes/passivity/enforcement.hpp"

#include <algorithm>
#include <cmath>

#include "phes/engine/session.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/svd.hpp"
#include "phes/util/check.hpp"

namespace phes::passivity {

namespace {

using la::Complex;
using la::ComplexVector;
using la::RealMatrix;

// Tikhonov ridge on the dual Gram system (conditioning guard), relative
// to the Gram diagonal's largest entry when that exceeds 1.
constexpr double kRidge = 1e-8;
// Enforced ceiling is 1 - kMargin.
constexpr double kMargin = 2e-3;

// One linearized constraint <DeltaC, G> = target at a frequency.
struct Constraint {
  RealMatrix g;         // p x n gradient matrix
  double target = 0.0;  // desired delta sigma (negative)
};

// Builds the constraints at frequency w for all singular values above
// the ceiling.
void add_constraints_at(const macromodel::SimoRealization& r, double w,
                        double ceiling, std::vector<Constraint>* out) {
  const std::size_t p = r.ports();
  const std::size_t n = r.order();
  const la::ComplexSvdResult svd = la::complex_svd(r.eval(w));
  for (std::size_t i = 0; i < p; ++i) {
    if (svd.sigma[i] <= ceiling) break;  // sigma is descending
    const ComplexVector u = svd.u.col(i);
    const ComplexVector v = svd.v.col(i);
    // z = Phi(jw) v, so that delta sigma = Re(u^H DeltaC z).
    ComplexVector z(n);
    r.resolvent_b(Complex(0.0, w), v, z);
    Constraint c;
    c.g = RealMatrix(p, n);
    for (std::size_t row = 0; row < p; ++row) {
      const Complex ui = std::conj(u[row]);
      for (std::size_t col = 0; col < n; ++col) {
        c.g(row, col) = (ui * z[col]).real();
      }
    }
    c.target = ceiling - svd.sigma[i];  // negative: push below ceiling
    out->push_back(std::move(c));
  }
}

}  // namespace

EnforcementResult enforce_passivity(engine::SolverSession& session,
                                    const core::SolverOptions& solver_opt) {
  {
    const auto sigma_d =
        la::real_singular_values(session.realization().d());
    util::check(sigma_d.empty() || sigma_d.front() < 1.0 - kMargin,
                "enforce_passivity: requires sigma_max(D) < 1 - margin");
  }

  EnforcementResult result;
  // Scratch copy for candidate-step evaluation; its C is kept in sync
  // with the session (which owns the authoritative model).
  macromodel::SimoRealization realization = session.realization();
  const RealMatrix c_initial = realization.c();
  const double c_initial_norm = la::frobenius_norm(c_initial);
  const double ceiling = 1.0 - kMargin;
  // Energy-norm weights: the step minimizes
  // sum_j ||DeltaC(:, j)||^2 / |Re p_j|, so state column j enters the
  // dual Gram sums and the step with the factor |alpha| of its block.
  la::RealVector column_weight(realization.order());
  for (const auto& blk : realization.blocks()) {
    column_weight[blk.state] = std::abs(blk.alpha);
    if (blk.is_pair) column_weight[blk.state + 1] = std::abs(blk.alpha);
  }

  const auto record_cost = [&result](EnforcementIterate& it,
                                     const core::SolverResult& solver) {
    it.solver_matvecs = solver.total_matvecs;
    it.cache_hits = solver.cache_hits;
    it.cache_misses = solver.cache_misses;
    it.warm_started = solver.warm_started;
    ++result.characterizations;
    result.total_matvecs += solver.total_matvecs;
    result.cache_hits += solver.cache_hits;
    result.cache_misses += solver.cache_misses;
  };

  for (std::size_t iter = 0; iter < kMaxEnforcementRounds; ++iter) {
    const PassivityReport report =
        characterize_passivity(session, solver_opt);
    EnforcementIterate it;
    it.violation_bands = report.bands.size();
    for (const auto& band : report.bands) {
      it.worst_sigma = std::max(it.worst_sigma, band.sigma_peak);
    }
    record_cost(it, report.solver);

    if (report.passive) {
      result.success = true;
      result.iterations = iter;
      result.history.push_back(it);
      break;
    }

    // Collect constraints at the peak of each band.
    std::vector<Constraint> constraints;
    for (const auto& band : report.bands) {
      add_constraints_at(realization, band.omega_peak, ceiling,
                         &constraints);
    }
    if (constraints.empty()) {
      // Crossings exist but every sampled sigma is already below the
      // ceiling: grazing violations; declare as converged as we can get.
      result.iterations = iter;
      result.history.push_back(it);
      break;
    }

    // Near-parallel constraints (the peaks of adjacent narrow bands)
    // make the dual Gram system numerically singular and the dual
    // variables explode.  Deduplicate by Gram-Schmidt on vec(G):
    // constraints whose gradient is nearly in the span of the kept ones
    // are dropped.
    std::vector<Constraint> kept;
    for (auto& c : constraints) {
      RealMatrix g = c.g;
      const double norm0 = la::frobenius_norm(g);
      if (norm0 == 0.0) continue;
      for (const auto& k : kept) {
        double proj = 0.0;
        const double k_norm_sq = la::frobenius_norm(k.g);
        for (std::size_t row = 0; row < g.rows(); ++row) {
          const double* gr = g.row_ptr(row);
          const double* kr = k.g.row_ptr(row);
          for (std::size_t col = 0; col < g.cols(); ++col) {
            proj += gr[col] * kr[col];
          }
        }
        proj /= (k_norm_sq * k_norm_sq);
        for (std::size_t row = 0; row < g.rows(); ++row) {
          double* gr = g.row_ptr(row);
          const double* kr = k.g.row_ptr(row);
          for (std::size_t col = 0; col < g.cols(); ++col) {
            gr[col] -= proj * kr[col];
          }
        }
      }
      if (la::frobenius_norm(g) > 1e-4 * norm0) kept.push_back(c);
    }
    if (kept.empty()) kept.push_back(constraints.front());

    // Minimum weighted-norm DeltaC: DeltaC = sum_a mu_a G_a W with
    // W = diag(column_weight) and (Gram_W + ridge I) mu = target, where
    // Gram_W(a, b) = <G_a W, G_b>.
    const std::size_t m = kept.size();
    RealMatrix gram(m, m);
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = a; b < m; ++b) {
        double dot = 0.0;
        for (std::size_t row = 0; row < kept[a].g.rows(); ++row) {
          const double* ga = kept[a].g.row_ptr(row);
          const double* gb = kept[b].g.row_ptr(row);
          for (std::size_t col = 0; col < kept[a].g.cols(); ++col) {
            dot += ga[col] * column_weight[col] * gb[col];
          }
        }
        gram(a, b) = dot;
        gram(b, a) = dot;
      }
    }
    double diag_max = 0.0;
    for (std::size_t a = 0; a < m; ++a) diag_max = std::max(diag_max, gram(a, a));
    const double ridge = kRidge * std::max(1.0, diag_max);
    for (std::size_t a = 0; a < m; ++a) gram(a, a) += ridge;
    la::RealVector rhs(m);
    for (std::size_t a = 0; a < m; ++a) rhs[a] = kept[a].target;
    const la::RealVector mu = la::lu_solve(gram, rhs);

    // Assemble the step.
    RealMatrix& c = realization.c();
    RealMatrix delta(c.rows(), c.cols());
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t row = 0; row < delta.rows(); ++row) {
        const double* g = kept[a].g.row_ptr(row);
        double* drow = delta.row_ptr(row);
        for (std::size_t col = 0; col < delta.cols(); ++col) {
          drow[col] += mu[a] * g[col] * column_weight[col];
        }
      }
    }
    // Trust region: the linearization is local; never move C by more
    // than a fraction of its own size in one step.
    const double c_norm = std::max(la::frobenius_norm(c), 1e-300);
    double step_norm = la::frobenius_norm(delta);
    const double max_step = 0.1 * c_norm;
    if (step_norm > max_step) {
      delta *= max_step / step_norm;
      step_norm = max_step;
    }

    // Backtracking on the sampled violation level: a full step should
    // drive the peaks to the ceiling; accept any step that makes real
    // progress on the worst peak, and only shrink when the (local)
    // linearization genuinely overshot.
    auto worst_at_constraints = [&]() {
      double worst = 0.0;
      for (const auto& band : report.bands) {
        worst = std::max(worst, la::complex_spectral_norm(
                                    realization.eval(band.omega_peak)));
      }
      return worst;
    };
    const double before = worst_at_constraints();
    const RealMatrix c_backup = c;
    double scale_step = 1.0;
    for (int halving = 0; halving < 4; ++halving) {
      c = c_backup;
      RealMatrix scaled = delta;
      scaled *= scale_step;
      c += scaled;
      const double after = worst_at_constraints();
      // Progress test: recover at least a quarter of the predicted
      // reduction (before -> ceiling).
      if (after <= before - 0.25 * scale_step * (before - ceiling)) break;
      scale_step *= 0.5;
    }
    // If even the smallest scale failed the test, the last (smallest)
    // step stays applied: slow progress beats stalling.

    // Commit the accepted step: bump the session's model revision
    // (invalidating factorizations, keeping the warm-start seeds).
    session.update_residues(realization.c());

    it.delta_c_norm = step_norm * scale_step;
    result.history.push_back(it);
    result.iterations = iter + 1;
  }

  if (!result.success && result.iterations < kMaxEnforcementRounds) {
    // Loop ended via the grazing-violation break; verify once more.
    // Same revision as the round that broke out, so the factorization
    // cache serves this confirmation almost for free.
    const PassivityReport final_report =
        characterize_passivity(session, solver_opt);
    EnforcementIterate confirm;
    record_cost(confirm, final_report.solver);
    result.success = final_report.passive;
  }

  const RealMatrix diff = session.realization().c() - c_initial;
  result.relative_model_change =
      c_initial_norm > 0.0 ? la::frobenius_norm(diff) / c_initial_norm : 0.0;
  return result;
}

}  // namespace phes::passivity
