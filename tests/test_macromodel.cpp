// Tests for pole-residue models, the structured SIMO realization
// (paper Eq. 2) and the synthetic model generator.  The Simo.* kernel
// tests also check the straight-line realization kernels of
// reference_kernels.hpp, which the test oracles build on, against the
// dense {A, B, C, D} expansion.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "phes/la/blas.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexVector;
using macromodel::make_synthetic_model;
using macromodel::PoleResidueModel;
using macromodel::SimoRealization;
using macromodel::SyntheticModelSpec;

PoleResidueModel tiny_model() {
  // 2-port model: column 0 has one real pole and one complex pair,
  // column 1 has one complex pair.
  macromodel::RealMatrix d{{0.1, 0.0}, {0.05, -0.1}};
  std::vector<macromodel::PoleResidueColumn> cols(2);
  cols[0].real_terms.push_back({-2.0, {0.5, -0.3}});
  cols[0].complex_terms.push_back(
      {Complex(-0.1, 3.0), {Complex(0.2, 0.1), Complex(-0.4, 0.05)}});
  cols[1].complex_terms.push_back(
      {Complex(-0.2, 5.0), {Complex(0.1, -0.2), Complex(0.3, 0.15)}});
  return PoleResidueModel(d, cols);
}

TEST(PoleResidue, OrderCountsPairsTwice) {
  const auto m = tiny_model();
  EXPECT_EQ(m.order(), 5u);  // 1 + 2 + 2
  EXPECT_EQ(m.ports(), 2u);
}

TEST(PoleResidue, EvalMatchesManualPartialFractions) {
  const auto m = tiny_model();
  const Complex s(0.0, 1.5);
  const auto h = m.eval(1.5);
  // Entry (0,0): d + r_real/(s-p) + r/(s-l) + conj(r)/(s-conj(l)).
  Complex expected = Complex(0.1, 0.0) + 0.5 / (s - Complex(-2.0, 0.0)) +
                     Complex(0.2, 0.1) / (s - Complex(-0.1, 3.0)) +
                     Complex(0.2, -0.1) / (s - Complex(-0.1, -3.0));
  EXPECT_NEAR(std::abs(h(0, 0) - expected), 0.0, 1e-14);
}

TEST(PoleResidue, StabilityCheck) {
  auto m = tiny_model();
  EXPECT_TRUE(m.is_stable());
  m.columns()[0].real_terms[0].pole = 0.5;
  EXPECT_FALSE(m.is_stable());
}

TEST(PoleResidue, ComplexPoleMustHavePositiveImag) {
  macromodel::RealMatrix d(1, 1);
  std::vector<macromodel::PoleResidueColumn> cols(1);
  cols[0].complex_terms.push_back({Complex(-1.0, -2.0), {Complex(1.0, 0.0)}});
  EXPECT_THROW(PoleResidueModel(d, cols), std::invalid_argument);
}

TEST(Simo, DenseConversionMatchesPoleResidueEval) {
  const auto m = tiny_model();
  const SimoRealization simo(m);
  EXPECT_EQ(simo.order(), m.order());
  const auto dense = simo.to_dense();
  for (double w : {0.3, 1.5, 3.0, 5.0, 20.0}) {
    const auto h_pr = m.eval(w);
    const auto h_ss = dense.eval(w);
    const auto h_simo = simo.eval(w);
    EXPECT_LT(test::max_abs_diff(h_pr, h_ss), 1e-11) << "w=" << w;
    EXPECT_LT(test::max_abs_diff(h_pr, h_simo), 1e-11) << "w=" << w;
  }
}

TEST(Simo, ApplyAMatchesDense) {
  const auto m = tiny_model();
  const SimoRealization simo(m);
  const auto dense = simo.to_dense();
  util::Rng rng(3);
  const std::size_t n = simo.order();
  ComplexVector x(n), y(n);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  test::apply_a<Complex>(simo, x, y);
  const auto y_ref = la::gemv(la::to_complex(dense.a),
                              std::span<const Complex>(x));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - y_ref[i]), 0.0, 1e-12);
  }
  test::apply_at<Complex>(simo, x, y);
  const auto yt_ref = la::gemv(la::to_complex(la::transpose(dense.a)),
                               std::span<const Complex>(x));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(y[i] - yt_ref[i]), 0.0, 1e-12);
  }
}

TEST(Simo, ShiftedSolveInvertsShiftedA) {
  const auto m = tiny_model();
  const SimoRealization simo(m);
  util::Rng rng(5);
  const std::size_t n = simo.order();
  for (const Complex s : {Complex(0.0, 2.0), Complex(0.3, -1.0),
                          Complex(-0.5, 4.0)}) {
    ComplexVector x(n), y(n), check(n);
    for (auto& v : x) v = Complex(rng.normal(), rng.normal());
    test::solve_a_minus(simo, s, x, y);
    // check = (A - sI) y must equal x.
    test::apply_a<Complex>(simo, y, check);
    for (std::size_t i = 0; i < n; ++i) check[i] -= s * y[i];
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(check[i] - x[i]), 0.0, 1e-11);
    }
    // Transposed variant.
    test::solve_at_minus(simo, s, x, y);
    test::apply_at<Complex>(simo, y, check);
    for (std::size_t i = 0; i < n; ++i) check[i] -= s * y[i];
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(check[i] - x[i]), 0.0, 1e-11);
    }
  }
}

TEST(Simo, BAndCKernelsMatchDense) {
  const auto m = tiny_model();
  const SimoRealization simo(m);
  const auto dense = simo.to_dense();
  util::Rng rng(7);
  const std::size_t n = simo.order(), p = simo.ports();

  ComplexVector u(p), x(n);
  for (auto& v : u) v = Complex(rng.normal(), rng.normal());
  test::apply_b<Complex>(simo, u, x);
  const auto x_ref = la::gemv(la::to_complex(dense.b),
                              std::span<const Complex>(u));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_ref[i]), 0.0, 1e-13);
  }

  ComplexVector xs(n), us(p);
  for (auto& v : xs) v = Complex(rng.normal(), rng.normal());
  test::apply_bt<Complex>(simo, xs, us);
  const auto u_ref = la::gemv(la::to_complex(la::transpose(dense.b)),
                              std::span<const Complex>(xs));
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_NEAR(std::abs(us[i] - u_ref[i]), 0.0, 1e-13);
  }

  ComplexVector yc(p);
  test::apply_c(simo, xs, yc);
  const auto yc_ref = la::gemv(la::to_complex(dense.c),
                               std::span<const Complex>(xs));
  for (std::size_t i = 0; i < p; ++i) {
    EXPECT_NEAR(std::abs(yc[i] - yc_ref[i]), 0.0, 1e-12);
  }

  ComplexVector xc(n);
  test::apply_ct(simo, u, xc);
  const auto xc_ref = la::gemv(la::to_complex(la::transpose(dense.c)),
                               std::span<const Complex>(u));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(xc[i] - xc_ref[i]), 0.0, 1e-12);
  }
}

TEST(Simo, ResolventBMatchesDenseSolve) {
  const auto m = tiny_model();
  const SimoRealization simo(m);
  const auto dense = simo.to_dense();
  util::Rng rng(9);
  const std::size_t n = simo.order(), p = simo.ports();
  const Complex s(0.0, 2.7);
  ComplexVector v(p), z(n);
  for (auto& vi : v) vi = Complex(rng.normal(), rng.normal());
  simo.resolvent_b(s, v, z);
  // Dense reference: (sI - A) z == B v.
  const auto bv = la::gemv(la::to_complex(dense.b),
                           std::span<const Complex>(v));
  auto az = la::gemv(la::to_complex(dense.a), std::span<const Complex>(z));
  for (std::size_t i = 0; i < n; ++i) {
    const Complex lhs = s * z[i] - az[i];
    EXPECT_NEAR(std::abs(lhs - bv[i]), 0.0, 1e-11);
  }
}

class GeneratorProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorProperty, ProducesRequestedStructure) {
  SyntheticModelSpec spec;
  spec.seed = static_cast<std::uint64_t>(GetParam());
  spec.ports = 3 + spec.seed % 4;
  spec.states = 40 + 7 * (spec.seed % 5);
  spec.target_peak_gain = 1.05;
  const auto model = make_synthetic_model(spec);
  EXPECT_EQ(model.ports(), spec.ports);
  EXPECT_EQ(model.order(), spec.states);
  EXPECT_TRUE(model.is_stable());
  // D norm as requested.
  const auto sigma_d = la::real_singular_values(model.d());
  EXPECT_NEAR(sigma_d.front(), spec.d_norm, 1e-9);
}

TEST_P(GeneratorProperty, PeakGainNearTarget) {
  SyntheticModelSpec spec;
  spec.seed = 100 + static_cast<std::uint64_t>(GetParam());
  spec.ports = 4;
  spec.states = 60;
  spec.target_peak_gain = 1.08;
  const auto model = make_synthetic_model(spec);
  double peak = 0.0;
  for (std::size_t i = 0; i < 600; ++i) {
    const double w =
        std::exp(std::log(0.5) + (std::log(12.0) - std::log(0.5)) *
                                     static_cast<double>(i) / 599.0);
    peak = std::max(peak, la::complex_spectral_norm(model.eval(w)));
  }
  EXPECT_GT(peak, 1.0);   // non-passive as requested
  EXPECT_LT(peak, 1.35);  // but controlled
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty, ::testing::Range(0, 6));

TEST(Generator, DeterministicForSeed) {
  SyntheticModelSpec spec;
  spec.seed = 42;
  const auto m1 = make_synthetic_model(spec);
  const auto m2 = make_synthetic_model(spec);
  for (double w : {1.0, 3.0, 9.0}) {
    EXPECT_LT(test::max_abs_diff(m1.eval(w), m2.eval(w)), 1e-15);
  }
}

TEST(Generator, RejectsBadSpecs) {
  SyntheticModelSpec spec;
  spec.ports = 0;
  EXPECT_THROW(make_synthetic_model(spec), std::invalid_argument);
  spec = SyntheticModelSpec{};
  spec.d_norm = 1.0;
  EXPECT_THROW(make_synthetic_model(spec), std::invalid_argument);
  spec = SyntheticModelSpec{};
  spec.omega_max = spec.omega_min;
  EXPECT_THROW(make_synthetic_model(spec), std::invalid_argument);
}

TEST(Samples, SampleAndErrorRoundTrip) {
  const auto m = tiny_model();
  const auto samples = macromodel::sample_model(m, 0.5, 10.0, 31);
  samples.check_consistency();
  EXPECT_EQ(samples.count(), 31u);
  EXPECT_EQ(samples.ports(), 2u);
  EXPECT_LT(test::max_relative_error(m, samples), 1e-14);
}

TEST(Samples, InconsistentDataThrows) {
  macromodel::FrequencySamples s;
  s.omega = {1.0, 0.5};
  s.h.resize(2, la::ComplexMatrix(2, 2));
  EXPECT_THROW(s.check_consistency(), std::invalid_argument);
}

}  // namespace
}  // namespace phes
