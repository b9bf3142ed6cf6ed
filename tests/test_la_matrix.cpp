// Unit tests for the dense matrix container and BLAS-like kernels.

#include <gtest/gtest.h>

#include "phes/la/blas.hpp"
#include "phes/la/matrix.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexMatrix;
using la::RealMatrix;

TEST(Matrix, ConstructionAndIndexing) {
  RealMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
}

TEST(Matrix, InitializerList) {
  RealMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((RealMatrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
  const auto id = RealMatrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(Matrix, BlockInsert) {
  const RealMatrix b{{5, 6}, {8, 9}};
  RealMatrix target(4, 4);
  target.set_block(2, 2, b);
  EXPECT_DOUBLE_EQ(target(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(target(3, 3), 9.0);
  EXPECT_DOUBLE_EQ(target(1, 1), 0.0);
}

TEST(Matrix, BlockOutOfRangeThrows) {
  RealMatrix m(2, 2);
  EXPECT_THROW(m.set_block(1, 1, RealMatrix(2, 2)), std::invalid_argument);
}

TEST(Matrix, Arithmetic) {
  RealMatrix a{{1, 2}, {3, 4}};
  RealMatrix b{{5, 6}, {7, 8}};
  const RealMatrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  const RealMatrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 1), 8.0);
  const RealMatrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(1, 0), 4.0);
}

TEST(Matrix, TransposeAndAdjoint) {
  RealMatrix a{{1, 2, 3}, {4, 5, 6}};
  const RealMatrix t = la::transpose(a);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);

  ComplexMatrix c(1, 2);
  c(0, 0) = Complex(1.0, 2.0);
  c(0, 1) = Complex(3.0, -4.0);
  const ComplexMatrix h = la::adjoint(c);
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h(0, 0), Complex(1.0, -2.0));
  EXPECT_EQ(h(1, 0), Complex(3.0, 4.0));
}

TEST(Blas, DotIsConjugateLinear) {
  la::ComplexVector x{Complex(0.0, 1.0), Complex(2.0, 0.0)};
  la::ComplexVector y{Complex(0.0, 1.0), Complex(1.0, 1.0)};
  // conj(i)*i + conj(2)*(1+i) = 1 + 2 + 2i = 3 + 2i
  const Complex d = la::dot<Complex>(x, y);
  EXPECT_NEAR(d.real(), 3.0, 1e-15);
  EXPECT_NEAR(d.imag(), 2.0, 1e-15);
}

TEST(Blas, GemvMatchesManual) {
  RealMatrix a{{1, 2}, {3, 4}, {5, 6}};
  la::RealVector x{1.0, -1.0};
  const auto y = la::gemv(a, std::span<const double>(x));
  ASSERT_EQ(y.size(), 3u);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], -1.0);
}

TEST(Blas, GemmAssociativityProperty) {
  util::Rng rng(7);
  const RealMatrix a = test::random_real_matrix(4, 6, rng);
  const RealMatrix b = test::random_real_matrix(6, 3, rng);
  const RealMatrix c = test::random_real_matrix(3, 5, rng);
  const RealMatrix left = la::gemm(la::gemm(a, b), c);
  const RealMatrix right = la::gemm(a, la::gemm(b, c));
  EXPECT_LT(test::max_abs_diff(left, right), 1e-12);
}

TEST(Blas, GemmIdentity) {
  util::Rng rng(3);
  const RealMatrix a = test::random_real_matrix(5, 5, rng);
  const RealMatrix prod = la::gemm(a, RealMatrix::identity(5));
  EXPECT_LT(test::max_abs_diff(a, prod), 1e-15);
}

TEST(Blas, Norms) {
  la::RealVector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(la::nrm2<double>(v), 5.0);
  RealMatrix m{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(la::frobenius_norm(m), 5.0);
}

TEST(Blas, ShapeMismatchThrows) {
  RealMatrix a(2, 3);
  RealMatrix b(2, 3);
  EXPECT_THROW(la::gemm(a, b), std::invalid_argument);
  la::RealVector x(2);
  EXPECT_THROW(la::gemv(a, std::span<const double>(x)),
               std::invalid_argument);
}

}  // namespace
}  // namespace phes
