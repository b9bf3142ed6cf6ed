// Integration tests for the parallel Hamiltonian eigensolver: the
// crossing set Omega must match the dense-Schur ground truth for any
// thread count and both scheduling modes.  The DenseRoute suite checks
// core::solve's dense route (orders <= core::kDenseMaxOrder) against
// cold Krylov solves over a seeded grid of models, and the Routes suite
// checks which route core::solve takes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "phes/core/lambda_max.hpp"
#include "phes/core/solver.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "hamiltonian_analysis.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using core::ParallelHamiltonianEigensolver;
using core::SchedulingMode;
using core::SolverOptions;
using la::RealVector;
using macromodel::SimoRealization;

struct Fixture {
  macromodel::PoleResidueModel model;
  SimoRealization simo;
  RealVector truth;  ///< dense-Schur crossing frequencies
  double scale;
};

Fixture make_fixture(double peak, std::uint64_t seed,
                     std::size_t states = 36, std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  auto model = macromodel::make_synthetic_model(spec);
  SimoRealization simo(model);
  auto m = hamiltonian::build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(std::move(m));
  const double scale = model.max_pole_magnitude();
  auto truth =
      test::extract_imaginary_frequencies(spectrum, 1e-8, scale);
  return {std::move(model), std::move(simo), std::move(truth), scale};
}

class SolverAgainstTruth : public ::testing::TestWithParam<int> {};

TEST_P(SolverAgainstTruth, SerialMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 600 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 1;
  opt.seed = 11 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale))
      << "found " << res.crossings.size() << " vs truth "
      << fx.truth.size();
  EXPECT_EQ(res.passive, fx.truth.empty());
}

TEST_P(SolverAgainstTruth, ParallelMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 700 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 4;
  opt.seed = 23 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale))
      << "found " << res.crossings.size() << " vs truth "
      << fx.truth.size();
}

TEST_P(SolverAgainstTruth, StaticGridMatchesDenseSchur) {
  const Fixture fx = make_fixture(1.07, 800 + GetParam());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 3;
  opt.scheduling = SchedulingMode::kStaticGrid;
  opt.seed = 31 + GetParam();
  const auto res = solver.solve(opt);
  EXPECT_TRUE(test::frequencies_match(res.crossings, fx.truth,
                                      1e-5 * fx.scale));
  EXPECT_EQ(res.shifts_eliminated, 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, SolverAgainstTruth, ::testing::Range(0, 6));

TEST(Solver, PassiveModelReportsEmptyOmega) {
  const Fixture fx = make_fixture(0.8, 901);
  ASSERT_TRUE(fx.truth.empty());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 2;
  const auto res = solver.solve(opt);
  EXPECT_TRUE(res.passive);
  EXPECT_TRUE(res.crossings.empty());
}

TEST(Solver, NearPassiveModelIsStillClassifiedCorrectly) {
  // Peak just below 1: eigenvalues near but not on the axis — the
  // expensive passive case (paper Cases 4 and 6).
  const Fixture fx = make_fixture(0.97, 902);
  ASSERT_TRUE(fx.truth.empty());
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 4;
  const auto res = solver.solve(opt);
  EXPECT_TRUE(res.passive);
}

TEST(Solver, DisksCoverSearchBand) {
  const Fixture fx = make_fixture(1.05, 903);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 2;
  const auto res = solver.solve(opt);
  std::vector<std::pair<double, double>> covered;
  for (const auto& d : res.disks) {
    covered.emplace_back(d.center - d.radius, d.center + d.radius);
  }
  std::sort(covered.begin(), covered.end());
  const double tol = 1e-6 * (res.omega_max - res.omega_min);
  double cursor = res.omega_min;
  for (const auto& [lo, hi] : covered) {
    ASSERT_LE(lo, cursor + tol) << "coverage gap before " << lo;
    cursor = std::max(cursor, hi);
    if (cursor >= res.omega_max) break;
  }
  EXPECT_GE(cursor, res.omega_max - tol);
}

TEST(Solver, SerialRunsAreDeterministic) {
  const Fixture fx = make_fixture(1.06, 904);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 1;
  opt.seed = 5;
  const auto r1 = solver.solve(opt);
  const auto r2 = solver.solve(opt);
  ASSERT_EQ(r1.crossings.size(), r2.crossings.size());
  for (std::size_t i = 0; i < r1.crossings.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.crossings[i], r2.crossings[i]);
  }
  EXPECT_EQ(r1.shifts_processed, r2.shifts_processed);
}

TEST(Solver, ThreadCountsAgreeWithEachOther) {
  const Fixture fx = make_fixture(1.08, 905, 48, 4);
  ParallelHamiltonianEigensolver solver(fx.simo);
  RealVector reference;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    SolverOptions opt;
    opt.threads = threads;
    opt.seed = 77;
    const auto res = solver.solve(opt);
    if (reference.empty()) {
      reference = res.crossings;
    } else {
      EXPECT_TRUE(test::frequencies_match(res.crossings, reference,
                                          1e-5 * fx.scale))
          << "thread count " << threads << " changed the result";
    }
  }
  EXPECT_TRUE(
      test::frequencies_match(reference, fx.truth, 1e-5 * fx.scale));
}

TEST(Solver, LambdaMaxBoundsSpectralRadius) {
  const Fixture fx = make_fixture(1.05, 907);
  auto m = hamiltonian::build_scattering_hamiltonian(fx.simo.to_dense());
  const auto spectrum = la::real_eigenvalues(std::move(m));
  double rho = 0.0;
  for (const auto& l : spectrum) rho = std::max(rho, std::abs(l));

  util::Rng rng(3);
  const double est = core::estimate_lambda_max(fx.simo, rng, 1).omega_max;
  EXPECT_GE(est, rho * 0.999);  // upper bound (with safety factor)
  EXPECT_LE(est, rho * 2.0);    // not wildly pessimistic
}

TEST(Solver, LambdaMaxIsBitIdenticalAtEveryThreadCount) {
  // The three runs go on up to three threads; the estimate, its matvec
  // count and the rng stream after it are the same bits at T = 1-4.
  const Fixture fx = make_fixture(1.05, 909);
  util::Rng rng1(5);
  const core::LambdaMaxEstimate one =
      core::estimate_lambda_max(fx.simo, rng1, 1);
  const double next1 = rng1.normal();
  EXPECT_GT(one.matvecs, 0u);
  for (const std::size_t threads : {2u, 3u, 4u}) {
    util::Rng rng(5);
    const core::LambdaMaxEstimate est =
        core::estimate_lambda_max(fx.simo, rng, threads);
    EXPECT_EQ(std::memcmp(&est.omega_max, &one.omega_max, sizeof(double)),
              0)
        << threads << " threads";
    EXPECT_EQ(est.matvecs, one.matvecs) << threads << " threads";
    const double next = rng.normal();
    EXPECT_EQ(std::memcmp(&next, &next1, sizeof(double)), 0)
        << threads << " threads";
  }
}

TEST(Solver, RejectsBadOptions) {
  const Fixture fx = make_fixture(1.05, 908, 20, 2);
  ParallelHamiltonianEigensolver solver(fx.simo);
  SolverOptions opt;
  opt.threads = 0;
  EXPECT_THROW(solver.solve(opt), std::invalid_argument);
}

// ---- DenseRoute: core::solve's dense route vs cold Krylov solves -------

struct DenseCase {
  std::size_t ports;
  std::size_t order;
  double peak;
  std::uint64_t seed;
};

void PrintTo(const DenseCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", order " << c.order << ", " << c.ports
      << " ports, peak gain " << c.peak;
}

std::vector<DenseCase> dense_cases() {
  std::vector<DenseCase> cases;
  std::uint64_t seed = 1100;
  for (std::size_t ports : {1u, 2u, 4u, 8u}) {
    for (std::size_t order : {std::size_t{12}, std::size_t{24},
                              std::size_t{48}, std::size_t{96},
                              core::kDenseMaxOrder}) {
      for (double peak : {0.9, 0.999, 1.02, 1.1}) {
        ++seed;
        if (order < 2 * ports) continue;  // generator: 2 states per port
        cases.push_back({ports, order, peak, seed});
      }
    }
  }
  return cases;
}

class DenseRoute : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseRoute, MatchesColdKrylovSolve) {
  const DenseCase c = GetParam();
  SCOPED_TRACE(::testing::PrintToString(c));
  const auto model =
      test::synthetic_model(c.peak, c.seed, c.order, c.ports);
  const SimoRealization simo(model);

  SolverOptions opt;
  opt.threads = 2;
  const auto dense = core::solve(simo, opt);
  ASSERT_TRUE(dense.dense);
  EXPECT_EQ(dense.total_matvecs, 0u);
  EXPECT_EQ(dense.shifts_processed, 0u);
  EXPECT_EQ(dense.factorizations, 0u);

  const auto krylov = ParallelHamiltonianEigensolver(simo).solve(opt);
  ASSERT_FALSE(krylov.dense);
  const double scale = std::max(model.max_pole_magnitude(), dense.omega_max);
  EXPECT_TRUE(
      test::frequencies_match(dense.crossings, krylov.crossings, 1e-5 * scale))
      << "dense found " << dense.crossings.size() << " crossings, Krylov "
      << krylov.crossings.size();
  EXPECT_EQ(dense.passive, krylov.passive);
  EXPECT_EQ(passivity::classify_bands(simo, dense.crossings).size(),
            passivity::classify_bands(simo, krylov.crossings).size());
}

INSTANTIATE_TEST_SUITE_P(SeededModels, DenseRoute,
                         ::testing::ValuesIn(dense_cases()));

TEST(DenseRouteBoundary, SelectedByOrderAtTheConstant) {
  core::SolverOptions opt;
  opt.threads = 2;
  for (const std::size_t order :
       {core::kDenseMaxOrder, core::kDenseMaxOrder + 1}) {
    SCOPED_TRACE("seed 1200, order " + std::to_string(order) + ", 1 port");
    const SimoRealization simo(test::synthetic_model(1.05, 1200, order, 1));
    ASSERT_EQ(simo.order(), order);
    const auto res = core::solve(simo, opt);
    EXPECT_EQ(res.dense, order <= core::kDenseMaxOrder);
    EXPECT_EQ(res.total_matvecs == 0, res.dense);
  }
}

// ---- Routes: what core::solve runs ----------------------------------------

bool same_bits(const core::SolverResult& a, const core::SolverResult& b) {
  const auto bits_equal = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return bits_equal(a.crossings, b.crossings) &&
         bits_equal(a.eigenvalues, b.eigenvalues) &&
         a.passive == b.passive && a.dense == b.dense &&
         a.disks.size() == b.disks.size() &&
         std::memcmp(&a.omega_min, &b.omega_min, sizeof(double)) == 0 &&
         std::memcmp(&a.omega_max, &b.omega_max, sizeof(double)) == 0;
}

TEST(Routes, ColdSolveMatchesClassicApiBitForBit) {
  // Above kDenseMaxOrder, core::solve is the Krylov solver on the same
  // realization: once on the model as given, once after a residue
  // update like one enforcement step.
  SimoRealization simo(
      test::synthetic_model(1.07, 20, core::kDenseMaxOrder + 8));
  core::SolverOptions opt;
  opt.threads = 1;
  for (int step = 0; step < 2; ++step) {
    if (step == 1) simo.c() *= 0.995;
    const auto classic = ParallelHamiltonianEigensolver(simo).solve(opt);
    const auto routed = core::solve(simo, opt);
    EXPECT_TRUE(same_bits(routed, classic)) << "step " << step;
    EXPECT_EQ(routed.total_matvecs, classic.total_matvecs);
    EXPECT_EQ(routed.shifts_processed, classic.shifts_processed);
    EXPECT_EQ(routed.factorizations, classic.factorizations);
  }
}

TEST(Routes, SmallModelTakesTheDenseRoute) {
  // At or below kDenseMaxOrder every solve is dense, whatever the
  // options: no shifts, no matvecs, no factorizations.
  const SimoRealization simo(test::synthetic_model(1.07, 20));
  ASSERT_LE(simo.order(), core::kDenseMaxOrder);
  core::SolverOptions opt;
  opt.threads = 2;
  const auto res = core::solve(simo, opt);
  EXPECT_TRUE(res.dense);
  EXPECT_FALSE(res.passive);
  EXPECT_EQ(res.total_matvecs, 0u);
  EXPECT_EQ(res.shifts_processed, 0u);
  EXPECT_EQ(res.factorizations, 0u);
  EXPECT_TRUE(same_bits(res, core::solve_dense(simo)));
}

}  // namespace
}  // namespace phes
