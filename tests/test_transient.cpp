// Time-domain validation of the passivity machinery: the transient
// simulator must (a) agree with the frequency-domain singular-value
// picture (energy gain == sigma^2 at the drive frequency), (b) stay
// bounded for passive models under any passive termination, and (c)
// blow up for non-passive models exactly when the closed loop has
// right-half-plane poles — the paper's motivating failure mode.

#include <gtest/gtest.h>

#include <cmath>

#include "phes/engine/session.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/schur.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "test_support.hpp"
#include "transient_simulation.hpp"

namespace phes {
namespace {

using macromodel::SimoRealization;
using test::EnergyGainOptions;
using test::measure_energy_gain;
using test::simulate_terminated;
using test::TransientOptions;

macromodel::PoleResidueModel make_model(double peak, std::uint64_t seed,
                                        std::size_t states = 24,
                                        std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  spec.min_damping = 0.05;  // faster settling for short simulations
  spec.max_damping = 0.2;
  return macromodel::make_synthetic_model(spec);
}

// Closed-loop system matrix A + B W Gamma C, W = (I - Gamma D)^{-1}.
la::RealMatrix closed_loop_matrix(const SimoRealization& simo,
                                  const la::RealVector& gammas) {
  const auto ss = simo.to_dense();
  const std::size_t p = simo.ports();
  la::RealMatrix iw = la::RealMatrix::identity(p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) iw(i, j) -= gammas[i] * ss.d(i, j);
  }
  const la::RealMatrix w = la::lu_inverse(iw);
  la::RealMatrix gc = ss.c;
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < gc.cols(); ++j) gc(i, j) *= gammas[i];
  }
  const la::RealMatrix loop = la::gemm(ss.b, la::gemm(w, gc));
  return ss.a + loop;
}

bool has_rhp_pole(const SimoRealization& simo,
                  const la::RealVector& gammas) {
  const auto ev = la::real_eigenvalues(closed_loop_matrix(simo, gammas));
  for (const auto& l : ev) {
    if (l.real() > 1e-9) return true;
  }
  return false;
}

// All +-magnitude sign patterns over p ports (2^p terminations).
std::vector<la::RealVector> sign_patterns(std::size_t p, double magnitude) {
  std::vector<la::RealVector> out;
  for (std::size_t mask = 0; mask < (1u << p); ++mask) {
    la::RealVector g(p);
    for (std::size_t k = 0; k < p; ++k) {
      g[k] = (mask >> k) & 1u ? magnitude : -magnitude;
    }
    out.push_back(std::move(g));
  }
  return out;
}

TEST(EnergyGain, MatchesSigmaSquaredAtDriveFrequency) {
  const auto model = make_model(1.10, 31);
  const SimoRealization simo(model);
  // Pick a frequency and the corresponding top right singular vector.
  const double w = 0.6 * model.max_pole_magnitude();
  const auto svd = la::complex_svd(simo.eval(w));
  EnergyGainOptions opt;
  opt.omega = w;
  opt.port_vector = svd.v.col(0);
  opt.cycles = 400;
  const auto gain = measure_energy_gain(simo, opt);
  const double sigma_sq = svd.sigma[0] * svd.sigma[0];
  EXPECT_NEAR(gain.gain, sigma_sq, 0.05 * sigma_sq)
      << "time-domain gain disagrees with sigma^2";
}

TEST(EnergyGain, ExceedsUnityInsideViolationBand) {
  engine::SolverSession session(make_model(1.25, 32));
  const SimoRealization& simo = session.realization();
  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto report = passivity::characterize_passivity(session, sopt);
  ASSERT_FALSE(report.bands.empty());
  const auto& band = report.bands.front();

  const auto svd = la::complex_svd(simo.eval(band.omega_peak));
  EnergyGainOptions opt;
  opt.omega = band.omega_peak;
  opt.port_vector = svd.v.col(0);
  opt.cycles = 400;
  const auto gain = measure_energy_gain(simo, opt);
  EXPECT_GT(gain.gain, 1.0)
      << "non-passive band must amplify energy in the time domain";
}

TEST(EnergyGain, BelowUnityForPassiveModel) {
  const auto model = make_model(0.8, 33);
  const SimoRealization simo(model);
  for (double frac : {0.3, 0.6, 0.9}) {
    EnergyGainOptions opt;
    opt.omega = frac * model.max_pole_magnitude();
    opt.cycles = 300;
    const auto gain = measure_energy_gain(simo, opt);
    EXPECT_LT(gain.gain, 1.0) << "passive model amplified at omega frac "
                              << frac;
  }
}

TEST(Transient, PassiveModelStaysBoundedForAllTerminations) {
  const auto model = make_model(0.85, 34);
  const SimoRealization simo(model);
  for (double gamma : {-0.99, -0.5, 0.0, 0.5, 0.99}) {
    TransientOptions opt;
    opt.dt = 0.02;
    opt.steps = 20000;
    opt.termination_gamma = gamma;
    const auto res = simulate_terminated(simo, opt);
    EXPECT_FALSE(res.blew_up) << "gamma = " << gamma;
    // After the pulse the state must decay: final << peak.
    EXPECT_LT(res.final_state_norm, res.peak_state_norm);
  }
}

TEST(Transient, NonPassiveModelBlowsUpWhenClosedLoopIsUnstable) {
  // Scan per-port resistive terminations; simulate only where dense
  // analysis proves a right-half-plane pole, and require the simulator
  // to detect the blow-up.
  const auto model = make_model(1.5, 35);
  const SimoRealization simo(model);
  bool found_unstable_loop = false;
  for (const auto& gammas : sign_patterns(simo.ports(), 0.999)) {
    if (!has_rhp_pole(simo, gammas)) continue;
    found_unstable_loop = true;
    TransientOptions opt;
    opt.dt = 0.02;
    opt.steps = 200000;
    opt.termination_gammas = gammas;
    const auto res = simulate_terminated(simo, opt);
    EXPECT_TRUE(res.blew_up)
        << "closed loop has RHP poles but simulation stayed bounded";
    break;  // one confirmed blow-up is enough
  }
  // The paper's premise: a strongly non-passive model admits a passive
  // termination that destabilizes the loop.  If this generator/seed
  // stops producing one, the test must be revisited, not skipped.
  EXPECT_TRUE(found_unstable_loop);
}

TEST(Transient, EnforcementRemovesInstability) {
  // End-to-end: find an unstable termination for the non-passive model,
  // enforce passivity, verify the same termination is now stable.
  engine::SolverSession session(make_model(1.5, 35));
  // Enforcement perturbs the session's model in place.
  const SimoRealization& simo = session.realization();
  la::RealVector bad_gammas;
  for (const auto& gammas : sign_patterns(simo.ports(), 0.999)) {
    if (has_rhp_pole(simo, gammas)) {
      bad_gammas = gammas;
      break;
    }
  }
  ASSERT_FALSE(bad_gammas.empty()) << "no destabilizing termination";

  core::SolverOptions sopt;
  sopt.threads = 2;
  const auto enf = passivity::enforce_passivity(session, sopt);
  ASSERT_TRUE(enf.success);
  EXPECT_FALSE(has_rhp_pole(simo, bad_gammas));

  TransientOptions opt;
  opt.dt = 0.02;
  opt.steps = 50000;
  opt.termination_gammas = bad_gammas;
  const auto res = simulate_terminated(simo, opt);
  EXPECT_FALSE(res.blew_up);
}

TEST(Transient, RejectsActiveTermination) {
  const auto model = make_model(0.9, 37, 12, 2);
  const SimoRealization simo(model);
  TransientOptions opt;
  opt.termination_gamma = 1.5;  // |gamma| > 1: active load
  EXPECT_THROW((void)simulate_terminated(simo, opt), std::invalid_argument);
}

}  // namespace
}  // namespace phes
