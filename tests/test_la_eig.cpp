// Tests for the dense eigensolvers: Hessenberg reduction, real Schur
// (Francis double-shift QR), and the complex Hessenberg QR iteration
// (la::hessenberg_eig, single-shift Givens QR).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "phes/la/blas.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/hessenberg.hpp"
#include "phes/la/schur.hpp"
#include "phes/la/svd.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;
using la::RealMatrix;

// An orthogonal similarity preserves the trace and the Frobenius norm;
// both are checked to 1e-10 * ||A||_F, since the real reductions no
// longer form Q to rebuild A from.
void expect_similarity_invariants(const RealMatrix& reduced,
                                  const RealMatrix& a) {
  double trace_a = 0.0, trace_r = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    trace_a += a(i, i);
    trace_r += reduced(i, i);
  }
  const double norm_a = la::frobenius_norm(a);
  EXPECT_NEAR(trace_r, trace_a, 1e-10 * norm_a);
  EXPECT_NEAR(la::frobenius_norm(reduced), norm_a, 1e-10 * norm_a);
}

TEST(Hessenberg, RealStructureAndSimilarity) {
  util::Rng rng(1);
  const RealMatrix a = test::random_real_matrix(8, 8, rng);
  const RealMatrix h = la::hessenberg_reduce(a);
  // Structure: zero below first subdiagonal.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) EXPECT_DOUBLE_EQ(h(i, j), 0.0);
  }
  expect_similarity_invariants(h, a);
}

TEST(RealSchur, DiagonalMatrix) {
  RealMatrix a{{3, 0, 0}, {0, -1, 0}, {0, 0, 5}};
  const auto ev = la::real_eigenvalues(a);
  EXPECT_NEAR(test::spectrum_distance(
                  ev, {Complex(3, 0), Complex(-1, 0), Complex(5, 0)}),
              0.0, 1e-12);
}

TEST(RealSchur, KnownComplexPair) {
  // Rotation-like matrix: eigenvalues 1 +- 2i.
  RealMatrix a{{1, 2}, {-2, 1}};
  const auto ev = la::real_eigenvalues(a);
  EXPECT_NEAR(
      test::spectrum_distance(ev, {Complex(1, 2), Complex(1, -2)}), 0.0,
      1e-12);
}

TEST(RealSchur, SchurFactorizationReconstructs) {
  util::Rng rng(3);
  const RealMatrix a = test::random_real_matrix(12, 12, rng);
  const auto schur = la::real_schur(a);
  expect_similarity_invariants(schur.t, a);
  // T must be quasi-triangular: zero below the first subdiagonal and
  // no two consecutive subdiagonals.
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) {
      EXPECT_DOUBLE_EQ(schur.t(i, j), 0.0);
    }
  }
  for (std::size_t i = 2; i < 12; ++i) {
    const bool two_subdiags =
        schur.t(i, i - 1) != 0.0 && schur.t(i - 1, i - 2) != 0.0;
    EXPECT_FALSE(two_subdiags);
  }
}

class SchurProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchurProperty, EigenvaluesSatisfyCharacteristicResidual) {
  // For each eigenvalue, A - lambda I must be numerically singular: its
  // smallest singular value is tiny relative to ||A||_F.
  // complex_singular_values works on (A - lambda I)^H (A - lambda I), so
  // it resolves sigma_min only to about sqrt(eps) ||A||; the bound
  // leaves room for that.
  util::Rng rng(50 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + test::below(rng, 14);
  const RealMatrix a = test::random_real_matrix(n, n, rng);
  const auto ev = la::real_eigenvalues(a);
  ASSERT_EQ(ev.size(), n);
  const ComplexMatrix ac = la::to_complex(a);
  const double scale = la::frobenius_norm(a);
  for (const Complex& lambda : ev) {
    ComplexMatrix shifted = ac;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= lambda;
    const la::RealVector sigma = la::complex_singular_values(shifted);
    const double sigma_min = *std::min_element(sigma.begin(), sigma.end());
    EXPECT_LT(sigma_min, 1e-6 * scale)
        << "eigenvalue " << lambda << " does not annihilate A - lambda I";
  }
}

TEST_P(SchurProperty, TraceAndSpectrumSumAgree) {
  util::Rng rng(150 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + test::below(rng, 20);
  const RealMatrix a = test::random_real_matrix(n, n, rng);
  const auto ev = la::real_eigenvalues(a);
  Complex sum{};
  for (const auto& l : ev) sum += l;
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  EXPECT_NEAR(sum.real(), trace, 1e-8 * (1.0 + std::abs(trace)));
  EXPECT_NEAR(sum.imag(), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, SchurProperty, ::testing::Range(0, 12));

// Random upper-Hessenberg complex matrix: hessenberg_eig's input shape
// (Arnoldi's projected matrix).
ComplexMatrix random_hessenberg(std::size_t n, util::Rng& rng) {
  ComplexMatrix h = test::random_complex_matrix(n, n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) h(i, j) = Complex{};
  }
  return h;
}

TEST(HessenbergEig, DiagonalKnown) {
  ComplexMatrix a(3, 3);
  a(0, 0) = Complex(1, 1);
  a(1, 1) = Complex(-2, 0);
  a(2, 2) = Complex(0, -3);
  const auto ev = la::hessenberg_eig(a, false).values;
  EXPECT_NEAR(test::spectrum_distance(
                  ev, {Complex(1, 1), Complex(-2, 0), Complex(0, -3)}),
              0.0, 1e-12);
}

// Two independent QR algorithms on the same spectrum: Francis
// double-shift on A itself, and complex single-shift Givens QR on its
// real Hessenberg form.
TEST(HessenbergEig, MatchesRealSchurOnRealMatrix) {
  util::Rng rng(4);
  const RealMatrix a = test::random_real_matrix(10, 10, rng);
  const auto ev_real = la::real_eigenvalues(a);
  const auto ev_complex =
      la::hessenberg_eig(la::to_complex(la::hessenberg_reduce(a)), false)
          .values;
  EXPECT_LT(test::spectrum_distance(ev_real, ev_complex), 1e-7);
}

class HessenbergEigProperty : public ::testing::TestWithParam<int> {};

TEST_P(HessenbergEigProperty, EigenpairsHaveSmallResidual) {
  util::Rng rng(200 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + test::below(rng, 16);
  const ComplexMatrix h = random_hessenberg(n, rng);
  const auto eig = la::hessenberg_eig(h, true);
  ASSERT_EQ(eig.values.size(), n);
  const double scale = la::frobenius_norm(h);
  for (std::size_t j = 0; j < n; ++j) {
    const auto v = eig.vectors.col(j);
    EXPECT_NEAR(la::nrm2<Complex>(v), 1.0, 1e-12);
    const auto hv = la::gemv(h, std::span<const Complex>(v));
    double resid = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      resid = std::max(resid, std::abs(hv[i] - eig.values[j] * v[i]));
    }
    EXPECT_LT(resid, 1e-8 * (1.0 + scale));
  }
}

// Forming eigenvectors only adds Schur-basis rotations: the eigenvalues
// must not move by a bit.
TEST_P(HessenbergEigProperty, VectorsDoNotChangeValues) {
  util::Rng rng(300 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 4 + test::below(rng, 20);
  const ComplexMatrix h = random_hessenberg(n, rng);
  const auto values_only = la::hessenberg_eig(h, false).values;
  const auto with_vectors = la::hessenberg_eig(h, true).values;
  ASSERT_EQ(values_only.size(), with_vectors.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(values_only[i], with_vectors[i]) << "eigenvalue " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HessenbergEigProperty,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace phes
