// Tests for the single-shift iteration S(theta, rho0) against dense
// Schur ground truth.  The contract under test (paper Sec. III):
// S returns ({lambda_k}, rho) such that {lambda_k} are ALL eigenvalues
// of M inside the disk C(j*omega_center, rho) — soundness (each
// returned value is an eigenvalue) and completeness (none is missed).
// SingleShiftBitwiseTest holds S to the loop it replaced
// (reference_single_shift in reference_kernels.hpp), which also locked
// the final restart's Ritz vectors: eigenvalues, radius, restarts and
// matvecs must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "hamiltonian_analysis.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using core::kMinRestarts;
using core::single_shift_iteration;
using core::SingleShiftOptions;
using la::Complex;
using la::ComplexVector;
using macromodel::SimoRealization;

struct Truth {
  macromodel::PoleResidueModel model;
  SimoRealization simo;
  ComplexVector spectrum;
  double scale;
};

Truth make_truth(double peak, std::uint64_t seed, std::size_t states = 30,
                 std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  auto model = macromodel::make_synthetic_model(spec);
  SimoRealization simo(model);
  auto m = hamiltonian::build_scattering_hamiltonian(simo.to_dense());
  auto spectrum = la::real_eigenvalues(std::move(m));
  const double scale = model.max_pole_magnitude();
  return {std::move(model), std::move(simo), std::move(spectrum), scale};
}

void check_contract(const Truth& truth, double omega_center, double rho0,
                    std::uint64_t rng_seed) {
  SingleShiftOptions opt;
  util::Rng rng(rng_seed);
  const auto res = single_shift_iteration(truth.simo, omega_center, rho0,
                                          opt, kMinRestarts, rng, {});
  ASSERT_GT(res.radius, 0.0);
  const Complex theta(0.0, omega_center);
  const double tol = 1e-6 * truth.scale;

  // Soundness: every reported eigenvalue matches a true eigenvalue.
  for (const Complex& lambda : res.eigenvalues) {
    double best = 1e300;
    for (const Complex& mu : truth.spectrum) {
      best = std::min(best, std::abs(lambda - mu));
    }
    EXPECT_LT(best, tol) << "spurious eigenvalue " << lambda << " at shift "
                         << omega_center;
  }

  // Completeness: every true eigenvalue strictly inside the certified
  // disk is reported.  Allow a small boundary layer for roundoff.
  for (const Complex& mu : truth.spectrum) {
    const double dist = std::abs(mu - theta);
    if (dist < res.radius * (1.0 - 1e-6) - tol) {
      double best = 1e300;
      for (const Complex& lambda : res.eigenvalues) {
        best = std::min(best, std::abs(lambda - mu));
      }
      EXPECT_LT(best, tol)
          << "missed eigenvalue " << mu << " inside disk at " << omega_center
          << " radius " << res.radius;
    }
  }
}

class SingleShiftContract
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SingleShiftContract, SoundAndCompleteInsideDisk) {
  const auto [seed, peak] = GetParam();
  const Truth truth = make_truth(peak, 400 + seed);
  const double wmax = truth.scale;
  // Several shifts across the band, several initial radii.
  for (double frac : {0.0, 0.25, 0.6, 0.95}) {
    for (double rel_rho : {0.05, 0.3}) {
      check_contract(truth, frac * wmax, rel_rho * wmax,
                     900 + static_cast<std::uint64_t>(seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndPeaks, SingleShiftContract,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(1.06, 0.9)));

TEST(SingleShift, FindsKnownCrossingsNearShift) {
  // Place the shift exactly at a known imaginary eigenvalue; it must be
  // returned.
  const Truth truth = make_truth(1.08, 777);
  const auto freqs = test::extract_imaginary_frequencies(
      truth.spectrum, 1e-8, truth.scale);
  ASSERT_FALSE(freqs.empty());
  const double w0 = freqs[freqs.size() / 2];

  SingleShiftOptions opt;
  util::Rng rng(5);
  const auto res = single_shift_iteration(
      truth.simo, w0, 0.1 * truth.scale, opt, kMinRestarts, rng, {});
  double best = 1e300;
  for (const Complex& lambda : res.eigenvalues) {
    best = std::min(best, std::abs(lambda - Complex(0.0, w0)));
  }
  EXPECT_LT(best, 1e-6 * truth.scale);
}

TEST(SingleShift, ShrinkRuleCapsReportedCount) {
  // With a huge initial radius the disk would contain many eigenvalues;
  // the shrink rule must cap the report at n_theta (the paper requires
  // n_theta << d for stabilization and fine scheduling granularity).
  const Truth truth = make_truth(1.1, 888, 40, 4);
  SingleShiftOptions opt;
  opt.eigs_per_shift = 4;
  util::Rng rng(6);
  const auto res =
      single_shift_iteration(truth.simo, 0.5 * truth.scale,
                             10.0 * truth.scale, opt, kMinRestarts, rng, {});
  EXPECT_LE(res.eigenvalues.size(), 4u);
  // And the certificate still holds.
  const Complex theta(0.0, 0.5 * truth.scale);
  const double tol = 1e-6 * truth.scale;
  for (const Complex& mu : truth.spectrum) {
    if (std::abs(mu - theta) < res.radius * (1.0 - 1e-6) - tol) {
      double best = 1e300;
      for (const Complex& lambda : res.eigenvalues) {
        best = std::min(best, std::abs(lambda - mu));
      }
      EXPECT_LT(best, tol);
    }
  }
}

TEST(SingleShift, EmptyDiskOnPassiveQuietRegion) {
  // A passive model with well-damped poles: a small disk far from any
  // eigenvalue returns empty but certifies a positive radius.
  macromodel::SyntheticModelSpec spec;
  spec.ports = 2;
  spec.states = 16;
  spec.target_peak_gain = 0.5;
  spec.min_damping = 0.3;
  spec.max_damping = 0.5;
  spec.seed = 99;
  const auto model = macromodel::make_synthetic_model(spec);
  const SimoRealization simo(model);
  SingleShiftOptions opt;
  util::Rng rng(7);
  const double w = 0.5 * model.max_pole_magnitude();
  const auto res =
      single_shift_iteration(simo, w, 0.01 * model.max_pole_magnitude(),
                             opt, kMinRestarts, rng, {});
  EXPECT_GT(res.radius, 0.0);
  EXPECT_TRUE(res.eigenvalues.empty());
}

TEST(SingleShift, RejectsBadArguments) {
  const Truth truth = make_truth(1.05, 1234, 20, 2);
  SingleShiftOptions opt;
  util::Rng rng(1);
  EXPECT_THROW(single_shift_iteration(truth.simo, 1.0, 0.0, opt,
                                      kMinRestarts, rng, {}),
               std::invalid_argument);
  opt.eigs_per_shift = 60;
  opt.krylov_dim = 60;
  EXPECT_THROW(single_shift_iteration(truth.simo, 1.0, 1.0, opt,
                                      kMinRestarts, rng, {}),
               std::invalid_argument);
}

// memcmp equality of S and the loop it replaced on one shift; returns
// the reference's restart count.
std::size_t expect_single_shift_bitwise(const SimoRealization& simo,
                                        double omega, double rho0,
                                        std::size_t krylov_dim,
                                        std::size_t min_restarts) {
  const std::string label = "omega=" + std::to_string(omega) +
                            " rho0=" + std::to_string(rho0) +
                            " d=" + std::to_string(krylov_dim) +
                            " min_restarts=" + std::to_string(min_restarts);
  SingleShiftOptions opt;
  opt.krylov_dim = krylov_dim;
  util::Rng rng_got(31), rng_ref(31);
  const auto got = single_shift_iteration(simo, omega, rho0, opt,
                                          min_restarts, rng_got, {});
  const auto ref = test::reference_single_shift(simo, omega, rho0, opt,
                                                min_restarts, rng_ref);
  EXPECT_EQ(got.restarts, ref.restarts) << label;
  EXPECT_EQ(got.matvecs, ref.matvecs) << label;
  EXPECT_EQ(got.factorizations, ref.factorizations) << label;
  EXPECT_EQ(std::memcmp(&got.radius, &ref.radius, sizeof(double)), 0)
      << label;
  EXPECT_EQ(got.eigenvalues.size(), ref.eigenvalues.size()) << label;
  if (got.eigenvalues.size() == ref.eigenvalues.size() &&
      !ref.eigenvalues.empty()) {
    EXPECT_EQ(std::memcmp(got.eigenvalues.data(), ref.eigenvalues.data(),
                          ref.eigenvalues.size() * sizeof(Complex)),
              0)
        << label;
  }
  return ref.restarts;
}

TEST(SingleShiftBitwiseTest, MatchesLockEveryRestartLoop) {
  // A 4-port, order-220 model (operator dimension 440), shifts across
  // its band at two initial radii.  Restart floors 1 and 2 are the two
  // the solver uses; every run there stops after two restarts (a fresh
  // restart finds nothing new in the disk, as at every shift of Table I
  // cases 1 and 2), so its first restart's deflation vectors are read
  // and its second's are not.  Floor 3 adds runs whose middle restart
  // is non-final too: its vectors must still be built for the third.
  // At d = 30 some middle restarts lock pairs the first one missed, so
  // the third restart really reads them.
  const auto model = test::synthetic_model(1.1, 2024, 220, 4);
  const SimoRealization simo(model);
  const double scale = model.max_pole_magnitude();
  std::size_t max_restarts = 0;
  for (const std::size_t min_restarts : {std::size_t{1}, kMinRestarts,
                                         kMinRestarts + 1}) {
    for (const std::size_t krylov_dim : {60u, 30u}) {
      for (const double frac : {0.05, 0.3, 0.55, 0.8}) {
        for (const double rel_rho : {0.02, 0.1}) {
          max_restarts = std::max(
              max_restarts,
              expect_single_shift_bitwise(simo, frac * scale,
                                          rel_rho * scale, krylov_dim,
                                          min_restarts));
        }
      }
    }
  }
  EXPECT_GE(max_restarts, 3u);
}

}  // namespace
}  // namespace phes
