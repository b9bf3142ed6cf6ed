// Tests for the SVD / Hermitian eigensolver stack that backs the
// passivity singular-value checks.

#include <gtest/gtest.h>

#include <cmath>

#include "phes/la/blas.hpp"
#include "phes/la/svd.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexMatrix;
using la::RealMatrix;
using la::RealVector;

TEST(RealSvd, KnownDiagonal) {
  RealMatrix a{{3, 0}, {0, -2}};
  const auto svd = la::real_svd(a);
  EXPECT_NEAR(svd.sigma[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.sigma[1], 2.0, 1e-12);
}

TEST(RealSvd, ReconstructsAndOrthogonal) {
  util::Rng rng(21);
  const RealMatrix a = test::random_real_matrix(9, 5, rng);
  const auto svd = la::real_svd(a);
  // U diag(sigma) V^T == A
  RealMatrix us = svd.u;
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < 9; ++i) us(i, j) *= svd.sigma[j];
  }
  const RealMatrix rec = la::gemm(us, la::transpose(svd.v));
  EXPECT_LT(test::max_abs_diff(rec, a), 1e-10);
  // Orthogonality of both factors.
  EXPECT_LT(test::max_abs_diff(la::gemm(la::transpose(svd.u), svd.u),
                               RealMatrix::identity(5)),
            1e-11);
  EXPECT_LT(test::max_abs_diff(la::gemm(la::transpose(svd.v), svd.v),
                               RealMatrix::identity(5)),
            1e-11);
}

TEST(RealSvd, DescendingOrder) {
  util::Rng rng(22);
  const RealMatrix a = test::random_real_matrix(8, 8, rng);
  const auto sigma = la::real_singular_values(a);
  for (std::size_t i = 1; i < sigma.size(); ++i) {
    EXPECT_GE(sigma[i - 1], sigma[i]);
  }
}

TEST(RealSvd, WideMatrixHandledByTranspose) {
  util::Rng rng(23);
  const RealMatrix a = test::random_real_matrix(3, 7, rng);
  const auto s1 = la::real_singular_values(a);
  const auto s2 = la::real_singular_values(la::transpose(a));
  ASSERT_EQ(s1.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(s1[i], s2[i], 1e-10);
}

TEST(HermitianEig, RealDiagonalKnown) {
  ComplexMatrix a(2, 2);
  a(0, 0) = Complex(4, 0);
  a(1, 1) = Complex(-1, 0);
  const auto eig = la::hermitian_eig(a, true);
  EXPECT_NEAR(eig.values[0], 4.0, 1e-12);
  EXPECT_NEAR(eig.values[1], -1.0, 1e-12);
}

class HermitianProperty : public ::testing::TestWithParam<int> {};

TEST_P(HermitianProperty, DecompositionResidual) {
  util::Rng rng(500 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + test::below(rng, 12);
  const ComplexMatrix a = test::random_hermitian_matrix(n, rng);
  const auto eig = la::hermitian_eig(a, true);
  // A v_j == lambda_j v_j
  for (std::size_t j = 0; j < n; ++j) {
    const auto v = eig.vectors.col(j);
    const auto av = la::gemv(a, std::span<const Complex>(v));
    double resid = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      resid = std::max(resid, std::abs(av[i] - eig.values[j] * v[i]));
    }
    EXPECT_LT(resid, 1e-9 * (1.0 + la::frobenius_norm(a)));
  }
  // Unitary eigenvector matrix.
  const ComplexMatrix vhv = la::gemm(la::adjoint(eig.vectors), eig.vectors);
  EXPECT_LT(test::max_abs_diff(vhv, ComplexMatrix::identity(n)), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HermitianProperty,
                         ::testing::Range(0, 10));

TEST(ComplexSingularValues, MatchRealEmbedding) {
  // The real embedding [[Re, -Im],[Im, Re]] has each singular value of
  // the complex matrix twice.
  util::Rng rng(31);
  const std::size_t n = 6;
  const ComplexMatrix a = test::random_complex_matrix(n, n, rng);
  RealMatrix embed(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      embed(i, j) = a(i, j).real();
      embed(i, j + n) = -a(i, j).imag();
      embed(i + n, j) = a(i, j).imag();
      embed(i + n, j + n) = a(i, j).real();
    }
  }
  const auto s_complex = la::complex_singular_values(a);
  const auto s_embed = la::real_singular_values(embed);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(s_complex[i], s_embed[2 * i], 1e-8);
    EXPECT_NEAR(s_complex[i], s_embed[2 * i + 1], 1e-8);
  }
}

TEST(ComplexSvd, TripletsResidual) {
  util::Rng rng(33);
  const std::size_t n = 7;
  const ComplexMatrix a = test::random_complex_matrix(n, n, rng);
  const auto svd = la::complex_svd(a);
  for (std::size_t j = 0; j < n; ++j) {
    const auto v = svd.v.col(j);
    const auto av = la::gemv(a, std::span<const Complex>(v));
    const auto u = svd.u.col(j);
    double resid = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      resid = std::max(resid, std::abs(av[i] - svd.sigma[j] * u[i]));
    }
    EXPECT_LT(resid, 1e-8 * (1.0 + svd.sigma[0]));
  }
}

TEST(ComplexSpectralNorm, UnitaryIsOne) {
  // Build a unitary matrix from the Hermitian eigensolver of a random
  // Hermitian matrix; its spectral norm must be exactly 1.
  util::Rng rng(34);
  const ComplexMatrix h = test::random_hermitian_matrix(5, rng);
  const auto eig = la::hermitian_eig(h, true);
  EXPECT_NEAR(la::complex_spectral_norm(eig.vectors), 1.0, 1e-10);
}

}  // namespace
}  // namespace phes
