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
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "phes/core/arnoldi.hpp"
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
                                          opt, kMinRestarts, rng);
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
      truth.simo, w0, 0.1 * truth.scale, opt, kMinRestarts, rng);
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
                             10.0 * truth.scale, opt, kMinRestarts, rng);
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
                             opt, kMinRestarts, rng);
  EXPECT_GT(res.radius, 0.0);
  EXPECT_TRUE(res.eigenvalues.empty());
}

TEST(SingleShift, RejectsBadArguments) {
  const Truth truth = make_truth(1.05, 1234, 20, 2);
  SingleShiftOptions opt;
  util::Rng rng(1);
  EXPECT_THROW(single_shift_iteration(truth.simo, 1.0, 0.0, opt,
                                      kMinRestarts, rng),
               std::invalid_argument);
  opt.eigs_per_shift = 60;
  opt.krylov_dim = 60;
  EXPECT_THROW(single_shift_iteration(truth.simo, 1.0, 1.0, opt,
                                      kMinRestarts, rng),
               std::invalid_argument);
}

// ---- Planted miss: the d = kConfirmDim confirmation's insurance ------
// Restart 0 is run with the right eigenvector of an eigenvalue lambda*
// next to the shift appended to its locked set, so its deflated Krylov
// space cannot contain lambda* (the compression of the operator to the
// eigenvector's orthogonal complement has every eigenvalue but
// lambda*'s).  Its converged pairs are locked as S locks them, and the
// planted row is dropped again.  The confirmation then runs exactly as
// S runs it: Arnoldi at kConfirmDim from a fresh random start vector,
// then ritz_pairs.  It must either converge lambda* or leave an
// unconverged Ritz value whose certificate cap 0.9 / |mu| excludes it.

// Repeats single_shift.cpp's file-local acceptance constants.
constexpr double kRitzTol = 1e-9;
constexpr double kRadiusSafety = 0.9;

// Unit right eigenvector of M for lambda by inverse iteration on a
// shift-invert operator built next to lambda.
ComplexVector right_eigenvector(const SimoRealization& simo, Complex lambda,
                                double scale) {
  const hamiltonian::SmwShiftInvertOp near(
      simo, lambda + 1e-7 * scale * Complex(0.6, 0.8));
  util::Rng rng(17);
  ComplexVector x = core::random_start_vector(near.dim(), rng);
  ComplexVector y(x.size());
  for (int it = 0; it < 40; ++it) {
    near.apply(x, y);
    double norm = 0.0;
    for (const Complex& e : y) norm += std::norm(e);
    norm = std::sqrt(norm);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = y[i] / norm;
  }
  return x;
}

// Distance estimate 1/|mu| of the nearest unconverged Ritz value of
// `ar`, as S caps its radius; `on_converged` sees each converged pair.
template <typename F>
double scan_ritz_pairs(const core::ArnoldiResult& ar, double rho0,
                       F&& on_converged) {
  double cap = std::numeric_limits<double>::infinity();
  for (const auto& p : core::ritz_pairs(ar)) {
    const double mu_abs = std::abs(p.value);
    if (mu_abs < 1e3 * la::kEps / rho0) continue;
    if (p.residual > kRitzTol * mu_abs) {
      cap = std::min(cap, 1.0 / mu_abs);
    } else {
      on_converged(p);
    }
  }
  return cap;
}

// Plants lambda*'s eigenvector into restart 0 at shift j*omega, then
// runs the confirmation; returns the insurance branch that caught
// lambda*: "converged", "capped" or "missed".
std::string planted_miss(const Truth& truth, Complex lambda_star,
                         double omega, std::uint64_t start_seed,
                         const std::string& label) {
  const std::size_t d = SingleShiftOptions{}.krylov_dim;
  const double scale = truth.scale;
  const Complex theta(0.0, omega);
  const double star_dist = std::abs(lambda_star - theta);
  const double rho0 = 2.0 * star_dist;
  const hamiltonian::SmwShiftInvertOp op(truth.simo, theta);
  const std::size_t dim = op.dim();

  std::vector<double> locked =
      test::to_planes(right_eigenvector(truth.simo, lambda_star, scale));

  // Restart 0, blind to lambda*.
  util::Rng rng(start_seed);
  const core::ArnoldiResult ar0 = core::arnoldi(
      op, core::random_start_vector(dim, rng), d, locked);
  std::vector<Complex> found;
  const double cap0 = scan_ritz_pairs(ar0, rho0, [&](const auto& p) {
    const Complex lambda = theta + 1.0 / p.value;
    EXPECT_GT(std::abs(lambda - lambda_star), 1e-6 * scale)
        << label << ": restart 0 saw the planted eigenvalue";
    if (std::none_of(found.begin(), found.end(), [&](Complex f) {
          return std::abs(f - lambda) <= core::kClusterTol * scale;
        })) {
      found.push_back(lambda);
      core::lock_vector(locked, core::form_ritz_vector(ar0, p));
    }
  });
  locked.erase(locked.begin(),
               locked.begin() + static_cast<std::ptrdiff_t>(2 * dim));

  // The confirmation, as S runs it.
  const core::ArnoldiResult ar1 =
      core::arnoldi(op, core::random_start_vector(dim, rng),
                    std::min(core::kConfirmDim, d), locked);
  bool converged = false;
  const double cap1 = scan_ritz_pairs(ar1, rho0, [&](const auto& p) {
    if (std::abs(theta + 1.0 / p.value - lambda_star) <= 1e-6 * scale) {
      converged = true;
    }
  });
  const std::string outcome = converged ? "converged"
                              : kRadiusSafety * cap1 < star_dist ? "capped"
                                                                 : "missed";
  std::printf(
      "[planted-miss] %s restart0 locked %zu, restart0 cap %s lambda*: %s\n",
      label.c_str(), found.size(),
      kRadiusSafety * cap0 < star_dist ? "below" : "above", outcome.c_str());
  return outcome;
}

TEST(SingleShiftPlantedMiss, ConfirmationConvergesOrCapsTheMissedEigenvalue) {
  std::size_t cases = 0;
  for (const auto& [seed, states, ports] :
       {std::tuple<std::uint64_t, std::size_t, std::size_t>{3101, 40, 2},
        {3102, 50, 3},
        {3103, 60, 4}}) {
    const Truth truth = make_truth(1.08, seed, states, ports);
    const double scale = truth.scale;
    // lambda*: the crossing in the middle of the band and the
    // non-imaginary eigenvalue closest to the axis.
    std::vector<Complex> stars;
    const auto freqs =
        test::extract_imaginary_frequencies(truth.spectrum, 1e-8, scale);
    ASSERT_FALSE(freqs.empty()) << "seed " << seed;
    stars.push_back(Complex(0.0, freqs[freqs.size() / 2]));
    Complex off_axis(1e300, 0.0);
    for (const Complex& mu : truth.spectrum) {
      if (mu.real() > 1e-6 * scale && mu.imag() > 0.0 &&
          mu.real() < off_axis.real()) {
        off_axis = mu;
      }
    }
    stars.push_back(off_axis);
    for (const Complex& star : stars) {
      // Nearest other eigenvalue, not counting the star's mirror
      // -conj(lambda*), which sits at its distance from every shift.
      double gap = 1e300;
      for (const Complex& mu : truth.spectrum) {
        if (std::abs(mu - star) > 1e-8 * scale &&
            std::abs(mu + std::conj(star)) > 1e-8 * scale) {
          gap = std::min(gap, std::abs(mu - star));
        }
      }
      for (const double frac : {0.05, 0.3}) {
        for (const std::uint64_t start_seed : {11u, 12u, 13u}) {
          const double omega = star.imag() + frac * gap;
          const std::string label =
              "seed " + std::to_string(seed) + " order " +
              std::to_string(states) + " ports " + std::to_string(ports) +
              " lambda* (" + std::to_string(star.real()) + ", " +
              std::to_string(star.imag()) + ") shift " +
              std::to_string(omega) + " start " + std::to_string(start_seed);
          EXPECT_NE(planted_miss(truth, star, omega, start_seed, label),
                    "missed")
              << label;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 36u);
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
                                          min_restarts, rng_got);
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
  // Shifts across the band of two models at two initial radii.
  // Restart floor 2 is the solver's; every run at floors 1 and 2 stops
  // after two restarts (a fresh restart finds nothing new in the disk,
  // as at every shift of Table I cases 1 and 2), so its first restart's
  // deflation vectors are read and its second's are not.
  // Floor 3 adds runs whose middle restart is non-final too: its
  // vectors must still be built for the third.
  //  - A 4-port, order-220 model (operator dimension 440): its
  //    d = kConfirmDim middle restarts lock nothing restart 0 missed.
  //  - A 2-port, order-24 model (dimension 48): restart 0 at d = 47
  //    locks most of the space and the confirmation run covers the
  //    rest, so the middle restart locks new pairs; the third
  //    restart's Arnoldi length depends on their vectors.
  std::size_t max_restarts = 0;
  for (const auto& [seed, order, ports] :
       {std::tuple<std::uint64_t, std::size_t, std::size_t>{2024, 220, 4},
        {2050, 24, 2}}) {
    const auto model = test::synthetic_model(1.1, seed, order, ports);
    const SimoRealization simo(model);
    const double scale = model.max_pole_magnitude();
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
  }
  EXPECT_GE(max_restarts, 3u);
}

}  // namespace
}  // namespace phes
