// Tests for the Hamiltonian machinery: dense builder (Eq. 5), implicit
// operator, SMW shift-and-invert (Eq. 6), and spectrum analysis.
//
// The two highest-value checks live here:
//  1. SMW apply == dense complex LU solve of (M - theta I) x;
//  2. imaginary Hamiltonian eigenvalues == unit singular-value
//     crossing frequencies of H(jw).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "phes/hamiltonian/dense.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/schur.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "hamiltonian_analysis.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using hamiltonian::build_scattering_hamiltonian;
using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;
using la::RealMatrix;
using macromodel::make_synthetic_model;
using macromodel::SimoRealization;
using macromodel::SyntheticModelSpec;

macromodel::PoleResidueModel small_model(double peak, std::uint64_t seed) {
  SyntheticModelSpec spec;
  spec.ports = 3;
  spec.states = 24;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  return make_synthetic_model(spec);
}

TEST(DenseHamiltonian, HasHamiltonianBlockStructure) {
  // J M must be symmetric, J = [[0, I], [-I, 0]].
  const auto model = small_model(1.05, 1);
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const std::size_t n = simo.order();
  ASSERT_EQ(m.rows(), 2 * n);
  RealMatrix jm(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 2 * n; ++j) {
      jm(i, j) = m(n + i, j);
      jm(n + i, j) = -m(i, j);
    }
  }
  EXPECT_LT(test::max_abs_diff(jm, la::transpose(jm)), 1e-10);
}

TEST(DenseHamiltonian, SpectrumHasQuadrupleSymmetry) {
  const auto model = small_model(1.05, 2);
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(m);
  EXPECT_TRUE(test::has_hamiltonian_symmetry(spectrum, 1e-6));
}

TEST(DenseHamiltonian, RejectsNonAsymptoticallyPassiveD) {
  auto model = small_model(1.05, 3);
  auto& d = model.d();
  for (std::size_t i = 0; i < d.rows(); ++i) d(i, i) = 1.5;  // sigma > 1
  const SimoRealization simo(model);
  EXPECT_THROW(build_scattering_hamiltonian(simo.to_dense()),
               std::invalid_argument);
}

TEST(DenseHamiltonian, ImaginaryEigenvaluesAreSingularValueCrossings) {
  // Ground truth for the entire method: at each extracted crossing
  // frequency, some singular value of H(jw) must equal 1.
  const auto model = small_model(1.06, 4);
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(m);
  const double scale = model.max_pole_magnitude();
  const auto freqs =
      test::extract_imaginary_frequencies(spectrum, 1e-8, scale);
  ASSERT_FALSE(freqs.empty()) << "peak gain 1.06 must produce crossings";
  for (double w : freqs) {
    const auto sigma = la::complex_singular_values(model.eval(w));
    double closest = 1e300;
    for (double s : sigma) closest = std::min(closest, std::abs(s - 1.0));
    EXPECT_LT(closest, 1e-6) << "no unit singular value at w=" << w;
  }
}

TEST(DenseHamiltonian, PassiveModelHasNoImaginaryEigenvalues) {
  const auto model = small_model(0.75, 5);
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const auto spectrum = la::real_eigenvalues(m);
  const auto freqs = test::extract_imaginary_frequencies(
      spectrum, 1e-8, model.max_pole_magnitude());
  EXPECT_TRUE(freqs.empty());
}

TEST(ImplicitOp, MatchesDenseHamiltonian) {
  const auto model = small_model(1.05, 7);
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const hamiltonian::ImplicitHamiltonianOp op(simo);
  ASSERT_EQ(op.dim(), m.rows());

  util::Rng rng(11);
  ComplexVector x(op.dim()), y(op.dim());
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  op.apply(x, y);
  const auto y_ref =
      la::gemv(la::to_complex(m), std::span<const Complex>(x));
  double worst = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    worst = std::max(worst, std::abs(y[i] - y_ref[i]));
  }
  EXPECT_LT(worst, 1e-9 * (1.0 + la::nrm2<Complex>(y_ref)));
}

class SmwProperty : public ::testing::TestWithParam<int> {};

TEST_P(SmwProperty, MatchesDenseLuSolve) {
  const auto model = small_model(1.05, 20 + GetParam());
  const SimoRealization simo(model);
  const RealMatrix m = build_scattering_hamiltonian(simo.to_dense());
  const std::size_t dim = m.rows();

  util::Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  // Shifts on and near the imaginary axis, as the solver uses them.
  const double wmax = model.max_pole_magnitude();
  const Complex theta(0.1 * rng.normal(), rng.uniform(0.1, 1.2) * wmax);

  const hamiltonian::SmwShiftInvertOp op(simo, theta);
  ComplexVector x(dim), y(dim);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  op.apply(x, y);

  // Dense reference: (M - theta I) y_ref = x.
  ComplexMatrix shifted = la::to_complex(m);
  for (std::size_t i = 0; i < dim; ++i) shifted(i, i) -= theta;
  const auto y_ref = la::lu_solve(shifted, x);

  double worst = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    worst = std::max(worst, std::abs(y[i] - y_ref[i]));
  }
  EXPECT_LT(worst, 1e-8 * (1.0 + la::nrm2<Complex>(y_ref)))
      << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Shifts, SmwProperty, ::testing::Range(0, 8));

TEST(SmwOp, ApplyInvertsShiftedHamiltonian) {
  // Forward check without any dense factorization: M (SMW x) - theta
  // (SMW x) == x using the implicit M operator.
  const auto model = small_model(1.05, 31);
  const SimoRealization simo(model);
  const hamiltonian::ImplicitHamiltonianOp m_op(simo);
  const Complex theta(0.0, 0.6 * model.max_pole_magnitude());
  const hamiltonian::SmwShiftInvertOp inv_op(simo, theta);

  util::Rng rng(17);
  ComplexVector x(m_op.dim()), y(m_op.dim()), my(m_op.dim());
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  inv_op.apply(x, y);
  m_op.apply(y, my);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    worst = std::max(worst, std::abs(my[i] - theta * y[i] - x[i]));
  }
  EXPECT_LT(worst, 1e-8 * (1.0 + la::nrm2<Complex>(x)));
}

TEST(Analysis, ExtractImaginaryFrequencies) {
  const ComplexVector spectrum{
      Complex(0.0, 2.0),  Complex(0.0, -2.0), Complex(-1.0, 3.0),
      Complex(1.0, 3.0),  Complex(1e-12, 5.0), Complex(-1e-12, -5.0),
      Complex(-0.5, 0.0)};
  const auto freqs =
      test::extract_imaginary_frequencies(spectrum, 1e-8, 1.0);
  ASSERT_EQ(freqs.size(), 2u);
  EXPECT_NEAR(freqs[0], 2.0, 1e-12);
  EXPECT_NEAR(freqs[1], 5.0, 1e-12);
}

TEST(Analysis, SymmetryDetector) {
  EXPECT_TRUE(test::has_hamiltonian_symmetry(
      {Complex(1.0, 2.0), Complex(-1.0, 2.0)}, 1e-12));
  EXPECT_FALSE(test::has_hamiltonian_symmetry(
      {Complex(1.0, 2.0), Complex(1.0, -2.0)}, 1e-12));
}

}  // namespace
}  // namespace phes
