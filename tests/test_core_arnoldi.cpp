// Tests for the deflated Arnoldi process and Ritz extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/operators.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using core::arnoldi;
using core::lock_ritz_pairs;
using core::ritz_pairs;
using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;

using test::DenseOp;

// A batch of Ritz pairs as lock_ritz_pairs takes it.
using Batch = std::vector<const core::RitzPair*>;

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
  std::vector<double> locked;
  ASSERT_EQ(lock_ritz_pairs(ar1, Batch{&pairs1.front()}, locked), 1u);
  auto ar2 = arnoldi(op, core::random_start_vector(15, rng), 12, locked);
  auto pairs2 = ritz_pairs(ar2);
  EXPECT_NEAR(std::abs(pairs2.front().value - second) / std::abs(second),
              0.0, 1e-8);
}

TEST(Arnoldi, LockedRowIsTheRitzVector) {
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
    // Locked alone, a pair's row is V_d y, unit norm, the same bits
    // each call.
    std::vector<double> row;
    ASSERT_EQ(lock_ritz_pairs(ar, Batch{&pairs[j]}, row), 1u);
    ASSERT_EQ(row.size(), 80u);
    std::vector<double> again;
    ASSERT_EQ(lock_ritz_pairs(ar, Batch{&pairs[j]}, again), 1u);
    EXPECT_EQ(std::memcmp(row.data(), again.data(),
                          row.size() * sizeof(double)),
              0)
        << "pair " << j;
    const ComplexVector xc = test::from_planes(row);
    EXPECT_NEAR(la::nrm2<Complex>(xc), 1.0, 1e-12);
    // V_d^H x recovers y: the basis is orthonormal and x = V_d y / |y|.
    for (std::size_t k = 0; k < ar.steps; ++k) {
      Complex g{};
      for (std::size_t i = 0; i < 40; ++i) g += std::conj(v(k, i)) * xc[i];
      EXPECT_NEAR(std::abs(g - pairs[j].coords[k]), 0.0, 1e-10)
          << "pair " << j << ", row " << k;
    }
  }
  // A pair from a different-length run is rejected, the pack untouched.
  const auto short_ar =
      arnoldi(op, core::random_start_vector(40, rng), 5, {});
  std::vector<double> locked;
  EXPECT_THROW((void)lock_ritz_pairs(short_ar, Batch{&pairs.front()}, locked),
               std::invalid_argument);
  EXPECT_TRUE(locked.empty());
}

TEST(Arnoldi, RepeatedPairAppendsOneRow) {
  // A batch naming one pair twice, and a pair whose coordinates are all
  // zero, lock one direction: the copy and the zero vector are dropped
  // as already represented, and the one row is the pair's own.  The
  // pack is reserved once, for exactly the rows kept.
  util::Rng rng(6);
  const DenseOp op(test::random_complex_matrix(50, 50, rng));
  const auto ar = arnoldi(op, core::random_start_vector(50, rng), 16, {});
  const auto pairs = ritz_pairs(ar);
  core::RitzPair zero = pairs[3];
  std::fill(zero.coords.begin(), zero.coords.end(), Complex{});
  std::vector<double> alone;
  ASSERT_EQ(lock_ritz_pairs(ar, Batch{&pairs[3]}, alone), 1u);
  std::vector<double> locked;
  EXPECT_EQ(lock_ritz_pairs(ar, Batch{&pairs[3], &zero, &pairs[3]}, locked),
            1u);
  ASSERT_EQ(locked.size(), alone.size());
  EXPECT_EQ(locked.capacity(), locked.size());
  EXPECT_EQ(std::memcmp(locked.data(), alone.data(),
                        alone.size() * sizeof(double)),
            0);
  // An empty batch appends nothing.
  EXPECT_EQ(lock_ritz_pairs(ar, Batch{}, locked), 0u);
  EXPECT_EQ(locked.size(), alone.size());
}

// max_ij |delta_ij - <r_i, r_j>| over a set of vectors.
double gram_error(const std::vector<ComplexVector>& rows) {
  double err = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      Complex g{};
      for (std::size_t k = 0; k < rows[i].size(); ++k) {
        g += std::conj(rows[i][k]) * rows[j][k];
      }
      err = std::max(err, std::abs((i == j ? Complex(1.0) : Complex{}) - g));
    }
  }
  return err;
}

// |x - L L^H x| for orthonormal rows L (two projection passes).
double out_of_span(ComplexVector x, const std::vector<ComplexVector>& rows) {
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& r : rows) {
      Complex g{};
      for (std::size_t k = 0; k < x.size(); ++k) g += std::conj(r[k]) * x[k];
      for (std::size_t k = 0; k < x.size(); ++k) x[k] -= g * r[k];
    }
  }
  return la::nrm2<Complex>(x);
}

TEST(Arnoldi, LockedRowsStayOrthonormalAndSpanTheRitzVectors) {
  // Shift-inverted operators at dim 400-4150 (4150 = 2 mod 4), as in
  // the single-shift iteration: 0, 10 or 30 rows locked from a first
  // run, then a second run deflated by them locks its first 40 pairs.
  // The whole pack must be as orthonormal as the vectors the second
  // run's CGS2 built, the pack and its basis together, within a small
  // multiple; each Ritz vector locked must lie in the pack's span, and
  // some pair left out must not.
  for (const std::size_t states : {200u, 501u, 2075u}) {
    const auto model = test::synthetic_model(1.08, 4001 + states, states, 3);
    const macromodel::SimoRealization simo(model);
    const hamiltonian::SmwShiftInvertOp op(
        simo, Complex(0.0, 0.5 * simo.max_pole_magnitude()));
    const std::size_t dim = op.dim();
    ASSERT_EQ(dim, 2 * states);
    util::Rng rng(states);
    for (const std::size_t nl : {0u, 10u, 30u}) {
      const std::string label =
          "dim " + std::to_string(dim) + ", locked " + std::to_string(nl);
      std::vector<double> locked;
      const auto first =
          arnoldi(op, core::random_start_vector(dim, rng), 60, {});
      const auto first_pairs = ritz_pairs(first);
      ASSERT_EQ(lock_ritz_pairs(
                    first, test::pair_ptrs(std::span(first_pairs).first(nl)),
                    locked),
                nl)
          << label;

      const auto second =
          arnoldi(op, core::random_start_vector(dim, rng), 60, locked);
      ASSERT_EQ(second.steps, 60u) << label;
      const auto pairs = ritz_pairs(second);
      ASSERT_EQ(lock_ritz_pairs(second,
                                test::pair_ptrs(std::span(pairs).first(40)),
                                locked),
                40u)
          << label;

      const auto rows = test::from_pack(locked, dim);
      std::vector<ComplexVector> built = test::from_pack(
          std::span<const double>(locked).first(nl * 2 * dim), dim);
      const ComplexMatrix v = test::to_reference(second).v_rows;
      for (std::size_t k = 0; k < v.rows(); ++k) {
        built.emplace_back(v.row_ptr(k), v.row_ptr(k) + dim);
      }
      const double built_err = gram_error(built);
      const double locked_err = gram_error(rows);
      std::printf("[lock] %s: |I - V^H V| %.2e, |I - L^H L| %.2e\n",
                  label.c_str(), built_err, locked_err);
      EXPECT_LE(locked_err, 4.0 * built_err) << label;

      double worst_in = 0.0;
      double best_out = 0.0;
      for (std::size_t j = 0; j < pairs.size(); ++j) {
        ComplexVector x(dim, Complex{});
        for (std::size_t k = 0; k < second.steps; ++k) {
          for (std::size_t i = 0; i < dim; ++i) {
            x[i] += v(k, i) * pairs[j].coords[k];
          }
        }
        const double norm = la::nrm2<Complex>(x);
        for (auto& e : x) e /= norm;
        const double r = out_of_span(std::move(x), rows);
        if (j < 40) {
          worst_in = std::max(worst_in, r);
        } else {
          best_out = std::max(best_out, r);
        }
      }
      EXPECT_LE(worst_in, 1e-12) << label;
      EXPECT_GT(best_out, 1e-3) << label;
    }
  }
}

TEST(Arnoldi, PackedLockedSetMatchesInterleavedOracle) {
  // The locked set as single_shift_iteration builds it (Ritz pairs of a
  // first run through lock_ritz_pairs, one pack) deflates exactly as
  // the interleaved CGS2 loop does with separate vectors: every dim
  // mod 4, 0-3 locked rows (a lone last row at 1 and 3).
  util::Rng rng(7);
  for (const std::size_t dim : {44u, 45u, 46u, 47u}) {
    const DenseOp op(test::random_complex_matrix(dim, dim, rng));
    const auto first = arnoldi(op, core::random_start_vector(dim, rng), 12, {});
    const auto pairs = ritz_pairs(first);
    for (std::size_t nl = 0; nl <= 3; ++nl) {
      std::vector<double> locked;
      ASSERT_EQ(lock_ritz_pairs(first,
                                test::pair_ptrs(std::span(pairs).first(nl)),
                                locked),
                nl);
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
  const auto first_pairs = ritz_pairs(first);
  std::vector<double> locked;
  ASSERT_EQ(lock_ritz_pairs(first, Batch{&first_pairs[0]}, locked), 1u);
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
