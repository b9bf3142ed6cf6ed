// Unit + property tests for LU and QR factorizations.

#include <gtest/gtest.h>

#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/qr.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexMatrix;
using la::RealMatrix;
using la::RealVector;

TEST(Lu, SolvesKnownSystem) {
  RealMatrix a{{4, 3}, {6, 3}};
  RealVector b{10, 12};
  const auto x = la::lu_solve(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  RealMatrix a{{1, 2}, {2, 4}};
  EXPECT_THROW((la::LuFactorization<double>{a}), std::runtime_error);
}

TEST(Lu, NonSquareThrows) {
  RealMatrix a(2, 3);
  EXPECT_THROW((la::LuFactorization<double>{a}), std::invalid_argument);
}

TEST(Lu, PivotingSolvesZeroLeadingEntry) {
  // a(0, 0) = 0: only a row swap makes the factorization possible.
  RealMatrix a{{0, 1}, {2, 3}};
  la::LuFactorization<double> lu(a);
  const auto x = lu.solve(RealVector{4, 11});
  EXPECT_NEAR(x[0], -0.5, 1e-12);
  EXPECT_NEAR(x[1], 4.0, 1e-12);
}

TEST(Lu, InverseReconstructs) {
  util::Rng rng(5);
  const RealMatrix a = test::random_real_matrix(6, 6, rng);
  const RealMatrix inv = la::lu_inverse(a);
  const RealMatrix prod = la::gemm(a, inv);
  EXPECT_LT(test::max_abs_diff(prod, RealMatrix::identity(6)), 1e-10);
}

class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, RealResidualSmall) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + test::below(rng, 40);
  const RealMatrix a = test::random_real_matrix(n, n, rng);
  RealVector b(n);
  for (auto& v : b) v = rng.normal();
  const auto x = la::lu_solve(a, b);
  const auto ax = la::gemv(a, std::span<const double>(x));
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) resid = std::max(resid, std::abs(ax[i] - b[i]));
  EXPECT_LT(resid, 1e-9 * (1.0 + la::nrm2<double>(b)));
}

TEST_P(LuProperty, ComplexResidualSmall) {
  util::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 3 + test::below(rng, 30);
  const ComplexMatrix a = test::random_complex_matrix(n, n, rng);
  la::ComplexVector b(n);
  for (auto& v : b) v = Complex(rng.normal(), rng.normal());
  const auto x = la::lu_solve(a, b);
  const auto ax = la::gemv(a, std::span<const Complex>(x));
  double resid = 0.0;
  for (std::size_t i = 0; i < n; ++i) resid = std::max(resid, std::abs(ax[i] - b[i]));
  EXPECT_LT(resid, 1e-9 * (1.0 + la::nrm2<Complex>(b)));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, LuProperty, ::testing::Range(0, 12));

TEST(Qr, SolvesConsistentSystemExactly) {
  // b in the column space of A: the least-squares residual is zero and
  // solve() must recover the generating x.
  util::Rng rng(9);
  const RealMatrix a = test::random_real_matrix(10, 4, rng);
  const RealVector x0{1.0, -2.0, 0.5, 3.0};
  la::QrFactorization qr(a);
  const auto x = qr.solve(la::gemv(a, std::span<const double>(x0)));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], x0[i], 1e-12);
}

TEST(Qr, RFactorsTheGramMatrix) {
  // A = Q R with orthonormal Q  =>  R^T R = A^T A.
  util::Rng rng(10);
  const RealMatrix a = test::random_real_matrix(8, 5, rng);
  la::QrFactorization qr(a);
  const RealMatrix r = qr.r();
  const RealMatrix rtr = la::gemm(la::transpose(r), r);
  const RealMatrix ata = la::gemm(la::transpose(a), a);
  EXPECT_LT(test::max_abs_diff(rtr, ata), 1e-12 * la::frobenius_norm(ata));
}

TEST(Qr, UnderdeterminedThrows) {
  RealMatrix a(2, 3);
  EXPECT_THROW(la::QrFactorization{a}, std::invalid_argument);
}

TEST(Qr, ExactSolveSquare) {
  RealMatrix a{{2, 1}, {1, 3}};
  RealVector b{5, 10};
  const auto x = la::least_squares(a, b);
  EXPECT_NEAR(2 * x[0] + x[1], 5.0, 1e-12);
  EXPECT_NEAR(x[0] + 3 * x[1], 10.0, 1e-12);
}

class QrProperty : public ::testing::TestWithParam<int> {};

TEST_P(QrProperty, NormalEquationsHold) {
  // At the least-squares optimum, the residual is orthogonal to the
  // column space: A^T (A x - b) = 0.
  util::Rng rng(77 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t m = 8 + test::below(rng, 20);
  const std::size_t n = 2 + test::below(rng, 6);
  const RealMatrix a = test::random_real_matrix(m, n, rng);
  RealVector b(m);
  for (auto& v : b) v = rng.normal();
  const auto x = la::least_squares(a, b);
  auto r = la::gemv(a, std::span<const double>(x));
  for (std::size_t i = 0; i < m; ++i) r[i] -= b[i];
  const auto atr = la::gemv(la::transpose(a), std::span<const double>(r));
  for (const double v : atr) EXPECT_LT(std::abs(v), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, QrProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace phes
