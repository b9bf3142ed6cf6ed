// Tests for the deflated Arnoldi process and Ritz extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/operators.hpp"
#include "phes/la/blas.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using core::arnoldi;
using core::form_ritz_vector;
using core::ritz_pairs;
using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;

using test::DenseOp;

ComplexMatrix diagonal_matrix(const ComplexVector& d) {
  ComplexMatrix m(d.size(), d.size());
  for (std::size_t i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

TEST(Arnoldi, BasisIsOrthonormal) {
  util::Rng rng(1);
  const DenseOp op(test::random_complex_matrix(30, 30, rng));
  const auto v0 = core::random_start_vector(30, rng);
  const auto ar = arnoldi(op, v0, 12, {});
  ASSERT_EQ(ar.steps, 12u);
  const ComplexMatrix v = test::to_reference(ar).v_rows;
  for (std::size_t i = 0; i <= 12; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      Complex g{};
      for (std::size_t k = 0; k < 30; ++k) {
        g += std::conj(v(i, k)) * v(j, k);
      }
      const double expected = (i == j) ? 1.0 : 0.0;
      EXPECT_NEAR(std::abs(g), expected, 1e-10) << i << "," << j;
    }
  }
}

TEST(Arnoldi, HessenbergRelationHolds) {
  // Op * V_d == V_{d+1} * H  (the Arnoldi identity).
  util::Rng rng(2);
  ComplexMatrix m = test::random_complex_matrix(25, 25, rng);
  const DenseOp op(m);
  const auto v0 = core::random_start_vector(25, rng);
  const std::size_t d = 10;
  const auto ar = arnoldi(op, v0, d, {});
  const ComplexMatrix v = test::to_reference(ar).v_rows;
  for (std::size_t j = 0; j < d; ++j) {
    ComplexVector vj(25), av(25);
    for (std::size_t i = 0; i < 25; ++i) vj[i] = v(j, i);
    op.apply(vj, av);
    for (std::size_t i = 0; i < 25; ++i) {
      Complex rec{};
      for (std::size_t k = 0; k <= d; ++k) {
        rec += v(k, i) * ar.h(k, j);
      }
      EXPECT_NEAR(std::abs(rec - av[i]), 0.0, 1e-9);
    }
  }
}

TEST(Arnoldi, FindsDominantEigenvalueOfDiagonal) {
  // Geometric spectrum: well-separated, so d = 15 converges the
  // dominant eigenvalue to full accuracy.
  util::Rng rng(3);
  ComplexVector diag;
  for (int i = 1; i <= 20; ++i) {
    diag.emplace_back(0.1 * std::pow(1.4, i), 0.05 * std::pow(1.4, i));
  }
  const DenseOp op(diagonal_matrix(diag));
  const auto v0 = core::random_start_vector(20, rng);
  const auto ar = arnoldi(op, v0, 15, {});
  const auto pairs = ritz_pairs(ar);
  ASSERT_FALSE(pairs.empty());
  // pairs[0] is the largest-|value| Ritz value; must match diag.back().
  EXPECT_NEAR(std::abs(pairs.front().value - diag.back()), 0.0, 1e-8);
  EXPECT_LT(pairs.front().residual, 1e-8);
}

TEST(Arnoldi, LuckyBreakdownOnLowRankStart) {
  // Start vector is an exact eigenvector: Krylov space is 1-dim.
  ComplexVector diag{Complex(2.0, 0.0), Complex(3.0, 0.0)};
  const DenseOp op(diagonal_matrix(diag));
  ComplexVector v0{Complex(1.0, 0.0), Complex(0.0, 0.0)};
  const auto ar = arnoldi(op, v0, 1, {});
  EXPECT_EQ(ar.steps, 1u);
  const auto pairs = ritz_pairs(ar);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_NEAR(std::abs(pairs[0].value - Complex(2.0, 0.0)), 0.0, 1e-12);
}

TEST(Arnoldi, DeflationFindsSecondEigenvalue) {
  // Geometric spectrum 1.5^i: strong gaps make both runs converge.
  util::Rng rng(4);
  ComplexVector diag;
  for (int i = 1; i <= 15; ++i) diag.emplace_back(std::pow(1.5, i), 0.0);
  const DenseOp op(diagonal_matrix(diag));
  const Complex top = diag.back();
  const Complex second = diag[13];

  // First run: converge the dominant eigenpair.
  auto ar1 = arnoldi(op, core::random_start_vector(15, rng), 12, {});
  const auto pairs1 = ritz_pairs(ar1);
  ASSERT_NEAR(std::abs(pairs1.front().value - top) / std::abs(top), 0.0,
              1e-9);

  // Lock it; second run must converge the next eigenvalue as dominant.
  const core::PlaneVector locked = form_ritz_vector(ar1, pairs1.front());
  auto ar2 = arnoldi(op, core::random_start_vector(15, rng), 12, locked);
  auto pairs2 = ritz_pairs(ar2);
  EXPECT_NEAR(std::abs(pairs2.front().value - second) / std::abs(second),
              0.0, 1e-8);
}

TEST(Arnoldi, RitzVectorsAreFormedFromCoords) {
  util::Rng rng(5);
  const DenseOp op(test::random_complex_matrix(40, 40, rng));
  const auto ar = arnoldi(op, core::random_start_vector(40, rng), 20, {});
  ASSERT_EQ(ar.steps, 20u);
  const auto pairs = ritz_pairs(ar);
  ASSERT_EQ(pairs.size(), 20u);
  const ComplexMatrix v = test::to_reference(ar).v_rows;
  for (std::size_t j = 0; j < pairs.size(); ++j) {
    // A pair carries only H_d's eigenvector coordinates.
    ASSERT_EQ(pairs[j].coords.size(), ar.steps);
    EXPECT_NEAR(la::nrm2<Complex>(pairs[j].coords), 1.0, 1e-12);
    // form_ritz_vector builds V_d y, unit norm, the same bits each call.
    const core::PlaneVector x = form_ritz_vector(ar, pairs[j]);
    ASSERT_EQ(x.size(), 80u);
    EXPECT_EQ(std::memcmp(x.data(), form_ritz_vector(ar, pairs[j]).data(),
                          x.size() * sizeof(double)),
              0)
        << "pair " << j;
    const ComplexVector xc = test::from_planes(x);
    EXPECT_NEAR(la::nrm2<Complex>(xc), 1.0, 1e-12);
    // V_d^H x recovers y: the basis is orthonormal and x = V_d y / |y|.
    for (std::size_t k = 0; k < ar.steps; ++k) {
      Complex g{};
      for (std::size_t i = 0; i < 40; ++i) g += std::conj(v(k, i)) * xc[i];
      EXPECT_NEAR(std::abs(g - pairs[j].coords[k]), 0.0, 1e-10)
          << "pair " << j << ", row " << k;
    }
  }
  // A pair from a different-length run is rejected.
  const auto short_ar =
      arnoldi(op, core::random_start_vector(40, rng), 5, {});
  EXPECT_THROW((void)form_ritz_vector(short_ar, pairs.front()),
               std::invalid_argument);
}

TEST(Arnoldi, LockVectorAppendsRowsToOnePack) {
  // Accepted candidates become the pack's next row, orthonormal to the
  // rows before; a dropped one leaves the pack as it was.  The pack
  // grows geometrically, not by one reallocation per lock.
  util::Rng rng(6);
  const std::size_t dim = 50;
  std::vector<double> locked;
  std::size_t reallocations = 0;
  for (std::size_t n = 0; n < 40; ++n) {
    const double* before = locked.data();
    ASSERT_TRUE(core::lock_vector(
        locked, test::to_planes(core::random_start_vector(dim, rng))));
    if (locked.data() != before) ++reallocations;
    ASSERT_EQ(locked.size(), (n + 1) * 2 * dim);
    const auto rows = test::from_pack(locked, dim);
    for (std::size_t j = 0; j <= n; ++j) {
      Complex g{};
      for (std::size_t i = 0; i < dim; ++i) {
        g += std::conj(rows[j][i]) * rows[n][i];
      }
      EXPECT_NEAR(std::abs(g - (j == n ? Complex(1.0) : Complex{})), 0.0,
                  1e-12)
          << "rows " << j << ", " << n;
    }
  }
  EXPECT_LE(reallocations, 8u);
  const std::vector<double> kept = locked;
  const core::PlaneVector again(locked.begin() + 2 * dim * 7,
                                locked.begin() + 2 * dim * 8);
  EXPECT_FALSE(core::lock_vector(locked, again));
  EXPECT_EQ(std::memcmp(locked.data(), kept.data(),
                        kept.size() * sizeof(double)),
            0);
  EXPECT_EQ(locked.size(), kept.size());
}

TEST(Arnoldi, PackedLockedSetMatchesInterleavedOracle) {
  // The locked set as single_shift_iteration builds it (Ritz vectors of
  // a first run through lock_vector, one pack) deflates exactly as the
  // interleaved CGS2 loop does with separate vectors: every dim mod 4,
  // 0-3 locked rows (a lone last row at 1 and 3).
  util::Rng rng(7);
  for (const std::size_t dim : {44u, 45u, 46u, 47u}) {
    const DenseOp op(test::random_complex_matrix(dim, dim, rng));
    const auto first = arnoldi(op, core::random_start_vector(dim, rng), 12, {});
    const auto pairs = ritz_pairs(first);
    std::vector<double> locked;
    for (std::size_t nl = 0; nl <= 3; ++nl) {
      if (nl > 0) {
        ASSERT_TRUE(core::lock_vector(locked,
                                      form_ritz_vector(first, pairs[nl - 1])));
      }
      ASSERT_EQ(locked.size(), nl * 2 * dim);
      const ComplexVector v0 = core::random_start_vector(dim, rng);
      const auto got = test::to_reference(arnoldi(op, v0, 20, locked));
      const auto ref =
          test::interleaved_arnoldi(op, v0, 20, test::from_pack(locked, dim));
      ASSERT_EQ(got.steps, ref.steps);
      EXPECT_EQ(got.matvecs, ref.matvecs);
      EXPECT_EQ(std::memcmp(got.h.data(), ref.h.data(),
                            ref.h.size() * sizeof(Complex)),
                0)
          << "dim " << dim << ", locked " << nl;
      EXPECT_EQ(std::memcmp(got.v_rows.data(), ref.v_rows.data(),
                            ref.v_rows.size() * sizeof(Complex)),
                0)
          << "dim " << dim << ", locked " << nl;
    }
  }
}

TEST(Arnoldi, ShorterRunReusesStorageBitForBit) {
  // A confirmation run at a smaller d written into a longer run's basis
  // (single_shift_iteration's restarts) keeps that allocation, and its
  // h, basis, steps and matvecs are those of a fresh allocation.
  util::Rng rng(8);
  const std::size_t dim = 45;
  const DenseOp op(test::random_complex_matrix(dim, dim, rng));
  const auto first = arnoldi(op, core::random_start_vector(dim, rng), 30, {});
  std::vector<double> locked;
  ASSERT_TRUE(core::lock_vector(locked,
                                form_ritz_vector(first, ritz_pairs(first)[0])));
  const ComplexVector v0 = core::random_start_vector(dim, rng);
  const auto fresh = arnoldi(op, v0, 12, locked);
  std::vector<double> storage = first.basis;
  const double* const block = storage.data();
  const auto reused = arnoldi(op, v0, 12, locked, std::move(storage));
  EXPECT_EQ(reused.basis.data(), block);
  ASSERT_EQ(reused.basis.size(), fresh.basis.size());
  EXPECT_EQ(reused.steps, fresh.steps);
  EXPECT_EQ(reused.matvecs, fresh.matvecs);
  EXPECT_EQ(std::memcmp(reused.basis.data(), fresh.basis.data(),
                        fresh.basis.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(reused.h.data(), fresh.h.data(),
                        fresh.h.size() * sizeof(Complex)),
            0);
}

TEST(Arnoldi, StartVectorInLockedSubspaceThrows) {
  ComplexVector diag{Complex(1, 0), Complex(2, 0), Complex(3, 0)};
  const DenseOp op(diagonal_matrix(diag));
  ComplexVector e0{Complex(1, 0), Complex(0, 0), Complex(0, 0)};
  const core::PlaneVector locked = test::to_planes(e0);
  EXPECT_THROW(arnoldi(op, e0, 2, locked), std::runtime_error);
}

TEST(Arnoldi, DimensionChecks) {
  ComplexVector diag{Complex(1, 0), Complex(2, 0)};
  const DenseOp op(diagonal_matrix(diag));
  ComplexVector bad(3);
  EXPECT_THROW(arnoldi(op, bad, 1, {}), std::invalid_argument);
  ComplexVector good(2, Complex(1.0, 0.0));
  EXPECT_THROW(arnoldi(op, good, 2, {}), std::invalid_argument);  // d >= dim
  // A locked pack that is not a whole number of rows.
  const std::vector<double> ragged(3, 0.0);
  EXPECT_THROW(arnoldi(op, good, 1, ragged), std::invalid_argument);
}

TEST(Arnoldi, RandomStartVectorIsUnitNorm) {
  util::Rng rng(9);
  const auto v = core::random_start_vector(100, rng);
  EXPECT_NEAR(la::nrm2<Complex>(v), 1.0, 1e-12);
}

}  // namespace
}  // namespace phes
