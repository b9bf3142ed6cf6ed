// Kernel-layer tests: the one kernel path against its oracles.
//
//  - the always-on blocked BLAS paths (gemv, solve_many) are
//    BIT-identical to the naive loops they replaced;
//  - nrm2 survives entries near DBL_MAX / DBL_MIN (scaled rescue pass);
//  - the split-plane Hessenberg QR (la::hessenberg_eig) is BIT-identical
//    to the interleaved std::complex loop it replaced, kept below
//    verbatim as reference_hessenberg_eig, on random, Arnoldi-derived
//    and branch-forcing (deflating, repeated-eigenvalue,
//    exceptional-shift) Hessenbergs, and on the inputs that probe the
//    bounded deflation scan (zero diagonals, subdiagonals at the
//    deflation threshold, entries near 1e+-300, NaN);
//  - the row-sweep Householder QR (la::QrFactorization) is BIT-identical
//    to the column-at-a-time loop it replaced (reference_qr in
//    reference_kernels.hpp) in r() and solve(), on square,
//    tall random and vector_fit sigma-shaped systems, through the
//    tau = 0 path and with signed zeros;
//  - the plane-row Gram-Schmidt kernels and core::arnoldi's CGS2 on
//    plane rows are BIT-identical to the interleaved kernels and loop
//    they replaced (interleaved_arnoldi in reference_kernels.hpp) in h,
//    basis, steps and matvecs, for every dim mod 4, 0-3 locked vectors
//    and a breakdown run;
//  - the vector dot and gemv kernels (dotc_rows, gemv_planes) are
//    BIT-identical to the scalar-accumulator loops they were written
//    from (scalar_dotc_rows / scalar_gemv_planes in
//    reference_kernels.hpp) for dims 1-9 and 36-39, 1-5 rows and
//    matrices of 1-21 rows, and the four-row gemv_t_planes to its
//    two-row loop (scalar_gemv_t_planes) for 1-21 rows;
//  - both builds of the four row kernels (two lanes, and four lanes on
//    AVX2, skipped on a CPU without it) are BIT-identical to those
//    oracles and dotc_rows / axpy_rows to the interleaved kernels, for
//    every dim mod 4, 0-7 rows, with signed zeros and a NaN; the entry
//    points run the AVX2 build exactly when the CPU has AVX2;
//  - SmwShiftInvertOp::apply, with its written-out table products and
//    four-row C / C^T passes, is BIT-identical to the std::complex
//    apply it replaced (TableSmwOp in reference_kernels.hpp);
//  - core::lock_ritz_pairs, whose MGS2 runs on the Ritz coordinates and
//    whose locked rows are axpy_rows sweeps written into the packed
//    locked set, is BIT-identical to its std::complex oracle
//    (reference_lock_ritz_pairs) on the Ritz pairs of real Arnoldi runs
//    (drops included) and on coordinates with exact zeros of either
//    sign;
//  - the library operators (ImplicitHamiltonianOp, SmwShiftInvertOp,
//    arnoldi CGS2) agree with the straight-line oracle loops of
//    reference_kernels.hpp to rounding on the solver's real shapes, and
//    are deterministic: bit-identical across repeated and concurrent
//    applies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/kernels.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/qr.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/check.hpp"
#include "phes/util/rng.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;
using la::RealMatrix;
using la::RealVector;

ComplexVector random_complex_vector(std::size_t n, util::Rng& rng) {
  ComplexVector v(n);
  for (auto& x : v) x = Complex(rng.normal(), rng.normal());
  return v;
}

RealVector random_real_vector(std::size_t n, util::Rng& rng) {
  RealVector v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

// ---- nrm2 extreme ranges ----------------------------------------------

TEST(Nrm2Test, OverflowSafe) {
  // Naive sum of squares overflows (3e200^2 = 9e400 > DBL_MAX); the
  // scaled pass must recover the 3-4-5 triangle exactly.
  const RealVector v{3e200, 4e200};
  EXPECT_DOUBLE_EQ(la::nrm2<double>(v), 5e200);
  const ComplexVector c{Complex(3e200, 0.0), Complex(0.0, 4e200)};
  EXPECT_DOUBLE_EQ(la::nrm2<Complex>(c), 5e200);
}

TEST(Nrm2Test, UnderflowSafe) {
  // Each square underflows to 0 exactly; naive nrm2 would report 0 for
  // a manifestly nonzero vector.
  const RealVector v{3e-200, 4e-200};
  EXPECT_DOUBLE_EQ(la::nrm2<double>(v), 5e-200);
  const RealVector tiny(7, 1e-300);
  EXPECT_NEAR(la::nrm2<double>(tiny), std::sqrt(7.0) * 1e-300,
              1e-315);
}

TEST(Nrm2Test, ZeroAndNormalRange) {
  const RealVector zero(5, 0.0);
  EXPECT_EQ(la::nrm2<double>(zero), 0.0);
  EXPECT_EQ(la::nrm2<double>(RealVector{}), 0.0);
  // Normal range keeps the historical bit pattern (plain sqrt of the
  // naive accumulation).
  util::Rng rng(11);
  const RealVector v = random_real_vector(33, rng);
  double acc = 0.0;
  for (double x : v) acc += x * x;
  EXPECT_EQ(la::nrm2<double>(v), std::sqrt(acc));
}

TEST(Nrm2Test, NanPropagates) {
  const RealVector v{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_TRUE(std::isnan(la::nrm2<double>(v)));
}

// ---- blocked BLAS = naive loops, bit for bit --------------------------

TEST(BlockedBlasTest, GemvBitIdenticalToNaive) {
  util::Rng rng(21);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{5, 7},
                            {6, 7},
                            {1, 9},
                            {17, 3}}) {
    RealMatrix a = test::random_real_matrix(m, n, rng);
    const RealVector x = random_real_vector(n, rng);
    const RealVector y = la::gemv(a, std::span<const double>(x));
    ASSERT_EQ(y.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < n; ++j) acc += a(i, j) * x[j];
      EXPECT_EQ(y[i], acc) << "row " << i << " of " << m << "x" << n;
    }
  }
}

TEST(SolveManyTest, BitIdenticalToColumnwiseSolve) {
  util::Rng rng(31);
  // Real R/S-shaped systems and the complex 2p x 2p SMW kernel shape.
  for (const std::size_t n : {4u, 9u, 16u}) {
    RealMatrix a = test::random_real_matrix(n, n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 4.0;  // well-posed
    const la::LuFactorization<double> lu(a);
    RealMatrix b(n, 4);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < 4; ++c) b(i, c) = rng.normal();
    }
    const RealMatrix x = lu.solve_many(b);
    for (std::size_t c = 0; c < 4; ++c) {
      RealVector col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, c);
      const RealVector ref = lu.solve(col);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(x(i, c), ref[i]) << "n=" << n << " col=" << c;
      }
    }
  }
  for (const std::size_t p : {3u, 8u}) {
    ComplexMatrix k = test::random_complex_matrix(2 * p, 2 * p, rng);
    for (std::size_t i = 0; i < 2 * p; ++i) k(i, i) += Complex(5.0, 0.0);
    const la::LuFactorization<Complex> lu(k);
    ComplexMatrix b(2 * p, 3);
    for (std::size_t i = 0; i < 2 * p; ++i) {
      for (std::size_t c = 0; c < 3; ++c) {
        b(i, c) = Complex(rng.normal(), rng.normal());
      }
    }
    const ComplexMatrix x = lu.solve_many(b);
    for (std::size_t c = 0; c < 3; ++c) {
      ComplexVector col(2 * p);
      for (std::size_t i = 0; i < 2 * p; ++i) col[i] = b(i, c);
      const ComplexVector ref = lu.solve(col);
      for (std::size_t i = 0; i < 2 * p; ++i) EXPECT_EQ(x(i, c), ref[i]);
    }
  }
}

// ---- tuned kernels vs. naive reductions -------------------------------

bool same_bits(const Complex* a, const Complex* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(Complex)) == 0;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

TEST(TunedKernelsTest, DotcAndAxpyMatchNaive) {
  // Plane-row kernels against the naive std::complex reductions (to
  // rounding) and against the interleaved row-paired kernels they
  // replaced (bit for bit), over every dim mod 4 and row count parity.
  util::Rng rng(41);
  for (const std::size_t dim : {36u, 37u, 38u, 39u}) {
    for (const std::size_t count : {1u, 2u, 3u, 5u, 8u}) {
      const std::string label =
          "dim=" + std::to_string(dim) + " count=" + std::to_string(count);
      const ComplexMatrix rows = test::random_complex_matrix(count, dim, rng);
      const ComplexVector w = random_complex_vector(dim, rng);
      std::vector<double> planes(count * 2 * dim);
      std::vector<const Complex*> iptrs(count);
      for (std::size_t j = 0; j < count; ++j) {
        const auto p = test::to_planes(std::span<const Complex>(
            rows.row_ptr(j), dim));
        std::copy(p.begin(), p.end(), planes.begin() + j * 2 * dim);
        iptrs[j] = rows.row_ptr(j);
      }
      const core::PlaneVector wp = test::to_planes(w);

      std::vector<Complex> proj(count);
      la::kernels::dotc_rows(planes.data(), 2 * dim, count, wp.data(), dim,
                             proj.data());
      for (std::size_t j = 0; j < count; ++j) {
        Complex expect{};
        for (std::size_t i = 0; i < dim; ++i) {
          expect += std::conj(rows(j, i)) * w[i];
        }
        EXPECT_NEAR(std::abs(proj[j] - expect), 0.0, 1e-12 * dim) << label;
      }
      std::vector<Complex> iproj(count);
      test::interleaved_dotc_ptrs(iptrs.data(), count, w.data(), dim,
                                  iproj.data());
      EXPECT_TRUE(same_bits(proj.data(), iproj.data(), count)) << label;

      core::PlaneVector w2 = wp;
      la::kernels::axpy_rows(planes.data(), 2 * dim, count, proj.data(),
                             w2.data(), dim);
      const ComplexVector w2c = test::from_planes(w2);
      for (std::size_t i = 0; i < dim; ++i) {
        Complex expect = w[i];
        for (std::size_t j = 0; j < count; ++j) {
          expect -= proj[j] * rows(j, i);
        }
        EXPECT_NEAR(std::abs(w2c[i] - expect), 0.0, 1e-12 * count) << label;
      }
      ComplexVector wi = w;
      test::interleaved_axpy_ptrs(iptrs.data(), count, proj.data(),
                                  wi.data(), dim);
      EXPECT_TRUE(same_bits(w2c.data(), wi.data(), dim)) << label;

      const double norm = la::kernels::nrm2_plane(wp.data(), dim);
      const double ref = la::nrm2<Complex>(w);
      EXPECT_TRUE(same_bits(&norm, &ref, 1)) << label;
    }
  }
}

TEST(TunedKernelsTest, PlaneNormRescueMatchesNrm2) {
  // Entries whose squares overflow or underflow take la::nrm2's scaled
  // pass; the plane norm must take the same pass in the same order.
  for (const double big : {3e200, 1e-170, 2e-310}) {
    const ComplexVector x{Complex(big, -4.0 * big), Complex(0.5 * big, 0.0),
                          Complex(-0.0, 7.0 * big)};
    const core::PlaneVector p = test::to_planes(x);
    const double got = la::kernels::nrm2_plane(p.data(), x.size());
    const double ref = la::nrm2<Complex>(x);
    EXPECT_TRUE(same_bits(&got, &ref, 1)) << big;
    EXPECT_GT(got, 0.0);
  }
}

TEST(TunedKernelsTest, PlaneKernelsMatchInterleaved) {
  util::Rng rng(42);
  const std::size_t m = 5, n = 23;
  const RealMatrix a = test::random_real_matrix(m, n, rng);
  const ComplexVector x = random_complex_vector(n, rng);
  const ComplexVector xt = random_complex_vector(m, rng);

  std::vector<double> xre(n), xim(n), yre(m), yim(m);
  la::kernels::split_planes(x.data(), n, xre.data(), xim.data());
  la::kernels::gemv_planes(a.row_ptr(0), m, n, xre.data(), xim.data(),
                           yre.data(), yim.data());
  const ComplexVector y_ref =
      la::gemv(la::to_complex(a), std::span<const Complex>(x));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(std::abs(Complex(yre[i], yim[i]) - y_ref[i]), 0.0,
                1e-12 * n);
  }

  std::vector<double> tre(m), tim(m), zre(n), zim(n);
  la::kernels::split_planes(xt.data(), m, tre.data(), tim.data());
  la::kernels::gemv_t_planes(a.row_ptr(0), m, n, tre.data(), tim.data(),
                             zre.data(), zim.data());
  const ComplexVector z_ref = la::gemv(la::to_complex(la::transpose(a)),
                                       std::span<const Complex>(xt));
  ComplexVector z(n);
  la::kernels::merge_planes(zre.data(), zim.data(), n, z.data());
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(std::abs(z[j] - z_ref[j]), 0.0, 1e-12 * m);
  }
}

// ---- two-lane vector kernels = their scalar loops, bit for bit -------

TEST(VectorKernelsBitwiseTest, DotcMatchesScalarOracle) {
  // Every dim parity and dim mod 4 (the pair and lone-row tails, and
  // dims below one vector iteration), every row count up to two pairs
  // plus a lone row.  The rows start one double and w three doubles
  // into their buffers, so their real planes sit off 16-byte
  // boundaries.
  util::Rng rng(43);
  for (const std::size_t dim :
       {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 36u, 37u, 38u, 39u}) {
    for (std::size_t count = 1; count <= 5; ++count) {
      const std::string label =
          "dim=" + std::to_string(dim) + " count=" + std::to_string(count);
      const RealVector buf = random_real_vector(1 + count * 2 * dim, rng);
      const double* rows = buf.data() + 1;
      const RealVector wbuf = random_real_vector(3 + 2 * dim, rng);
      const double* w = wbuf.data() + 3;

      std::vector<Complex> ref(count), got(count);
      test::scalar_dotc_rows(rows, 2 * dim, count, w, dim, ref.data());
      la::kernels::dotc_rows(rows, 2 * dim, count, w, dim, got.data());
      EXPECT_TRUE(same_bits(got.data(), ref.data(), count)) << label;
    }
  }
}

TEST(VectorKernelsBitwiseTest, GemvPlanesMatchesScalarOracle) {
  // Every row count the solver's C and D products see for up to 21
  // ports, with odd and even row lengths (the odd-j tail), from an
  // unaligned matrix and unaligned planes.
  util::Rng rng(44);
  for (std::size_t m = 1; m <= 21; ++m) {
    for (const std::size_t n : {1u, 2u, 3u, 8u, 21u, 40u, 41u}) {
      const std::string label =
          "m=" + std::to_string(m) + " n=" + std::to_string(n);
      const RealVector abuf = random_real_vector(1 + m * n, rng);
      const RealVector xbuf = random_real_vector(1 + 2 * n, rng);
      const double* a = abuf.data() + 1;
      const double* xre = xbuf.data() + 1;
      const double* xim = xre + n;
      std::vector<double> yre(m), yim(m), rre(m), rim(m);
      la::kernels::gemv_planes(a, m, n, xre, xim, yre.data(), yim.data());
      test::scalar_gemv_planes(a, m, n, xre, xim, rre.data(), rim.data());
      EXPECT_TRUE(same_bits(yre.data(), rre.data(), m)) << label;
      EXPECT_TRUE(same_bits(yim.data(), rim.data(), m)) << label;
    }
  }
}

TEST(VectorKernelsBitwiseTest, GemvTPlanesMatchesScalarOracle) {
  // Row counts 1-21 cover the four-row blocks and every tail (a
  // two-row pass, a lone row, both), with odd and even row lengths,
  // from an unaligned matrix and unaligned planes.
  util::Rng rng(45);
  for (std::size_t m = 1; m <= 21; ++m) {
    for (const std::size_t n : {1u, 2u, 3u, 8u, 21u, 40u, 41u}) {
      const std::string label =
          "m=" + std::to_string(m) + " n=" + std::to_string(n);
      const RealVector abuf = random_real_vector(1 + m * n, rng);
      const RealVector xbuf = random_real_vector(1 + 2 * m, rng);
      const double* a = abuf.data() + 1;
      const double* xre = xbuf.data() + 1;
      const double* xim = xre + m;
      std::vector<double> yre(n), yim(n), rre(n), rim(n);
      la::kernels::gemv_t_planes(a, m, n, xre, xim, yre.data(), yim.data());
      test::scalar_gemv_t_planes(a, m, n, xre, xim, rre.data(), rim.data());
      EXPECT_TRUE(same_bits(yre.data(), rre.data(), n)) << label;
      EXPECT_TRUE(same_bits(yim.data(), rim.data(), n)) << label;
    }
  }
}

// ---- both builds of the row kernels = their oracles, bit for bit ------

// The build under test, or a skip on a CPU that cannot run it.
class RowKernelBuildTest : public ::testing::TestWithParam<la::kernels::Isa> {
 protected:
  void SetUp() override {
    k_ = la::kernels::row_kernels(GetParam());
    if (k_ == nullptr) GTEST_SKIP() << "this CPU cannot run the build";
  }
  const la::kernels::RowKernels* k_ = nullptr;
};

// Every dim mod 4 (the four-lane loops' tails), dims below one vector
// iteration, and longer rows.
constexpr std::size_t kBuildDims[] = {1,  2,  3,  4,  5,  6,  7,
                                      8,  9,  36, 37, 38, 39};

// Random values with signed zeros and one NaN sprinkled in when
// `special` is set (the same quiet NaN everywhere, so every operation
// that meets it returns it unchanged and memcmp stays exact).
RealVector build_input(std::size_t n, util::Rng& rng, bool special) {
  RealVector v = random_real_vector(n, rng);
  if (special) {
    for (std::size_t i = 0; i < n; i += 3) v[i] = (i % 2 == 0) ? -0.0 : 0.0;
    v[n / 2] = std::numeric_limits<double>::quiet_NaN();
  }
  return v;
}

TEST_P(RowKernelBuildTest, DotcAndAxpyMatchScalarAndInterleavedOracles) {
  // Row counts 0-7: none, a lone row, a pair, axpy_rows' four-row
  // pass and every remainder after it; rows one double and w three
  // doubles into their buffers, so no plane starts on a vector
  // boundary.
  util::Rng rng(46);
  for (const std::size_t dim : kBuildDims) {
    for (std::size_t count = 0; count <= 7; ++count) {
      for (const bool special : {false, true}) {
        const std::string label = std::string(k_->name) +
                                  " dim=" + std::to_string(dim) +
                                  " count=" + std::to_string(count) +
                                  (special ? " signed zeros + NaN" : "");
        const RealVector buf =
            build_input(1 + count * 2 * dim, rng, special && count > 0);
        const double* rows = buf.data() + 1;
        RealVector wbuf = build_input(3 + 2 * dim, rng, special);
        const double* w = wbuf.data() + 3;

        std::vector<Complex> got(count), ref(count), iref(count);
        k_->dotc_rows(rows, 2 * dim, count, w, dim, got.data());
        test::scalar_dotc_rows(rows, 2 * dim, count, w, dim, ref.data());
        EXPECT_TRUE(same_bits(got.data(), ref.data(), count)) << label;

        std::vector<ComplexVector> irows(count);
        std::vector<const Complex*> iptrs(count);
        for (std::size_t j = 0; j < count; ++j) {
          irows[j] = test::from_planes(std::span<const double>(
              rows + j * 2 * dim, 2 * dim));
          iptrs[j] = irows[j].data();
        }
        const ComplexVector wi =
            test::from_planes(std::span<const double>(w, 2 * dim));
        test::interleaved_dotc_ptrs(iptrs.data(), count, wi.data(), dim,
                                    iref.data());
        EXPECT_TRUE(same_bits(got.data(), iref.data(), count)) << label;

        // Subtract with the projections as coefficients, an exact zero
        // and a negative zero among them.
        std::vector<Complex> coeffs = got;
        if (count > 1) coeffs[1] = Complex(-0.0, 0.0);
        RealVector wout(wbuf.begin() + 3, wbuf.end());
        k_->axpy_rows(rows, 2 * dim, count, coeffs.data(), wout.data(), dim);
        ComplexVector wref = wi;
        test::interleaved_axpy_ptrs(iptrs.data(), count, coeffs.data(),
                                    wref.data(), dim);
        const core::PlaneVector wref_planes = test::to_planes(wref);
        EXPECT_TRUE(same_bits(wout.data(), wref_planes.data(), 2 * dim))
            << label;
      }
    }
  }
}

TEST_P(RowKernelBuildTest, GemvPlanesMatchScalarOracles) {
  // Row counts 0-5 and 8, 9, 20, 21 (the four-row blocks with every
  // remainder), every row length mod 4, from an unaligned matrix and
  // unaligned planes.
  util::Rng rng(47);
  for (const std::size_t m : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 9u, 20u, 21u}) {
    for (const std::size_t n : kBuildDims) {
      for (const bool special : {false, true}) {
        const std::string label = std::string(k_->name) +
                                  " m=" + std::to_string(m) +
                                  " n=" + std::to_string(n) +
                                  (special ? " signed zeros + NaN" : "");
        const RealVector abuf = build_input(1 + m * n, rng, special && m > 0);
        const double* a = abuf.data() + 1;

        const RealVector xbuf = build_input(1 + 2 * n, rng, special);
        const double* xre = xbuf.data() + 1;
        const double* xim = xre + n;
        std::vector<double> yre(m), yim(m), rre(m), rim(m);
        k_->gemv_planes(a, m, n, xre, xim, yre.data(), yim.data());
        test::scalar_gemv_planes(a, m, n, xre, xim, rre.data(), rim.data());
        EXPECT_TRUE(same_bits(yre.data(), rre.data(), m)) << label;
        EXPECT_TRUE(same_bits(yim.data(), rim.data(), m)) << label;

        const RealVector tbuf = build_input(1 + 2 * m, rng, special && m > 0);
        const double* tre = tbuf.data() + 1;
        const double* tim = tre + m;
        std::vector<double> zre(n), zim(n), sre(n), sim(n);
        k_->gemv_t_planes(a, m, n, tre, tim, zre.data(), zim.data());
        test::scalar_gemv_t_planes(a, m, n, tre, tim, sre.data(),
                                   sim.data());
        EXPECT_TRUE(same_bits(zre.data(), sre.data(), n)) << label;
        EXPECT_TRUE(same_bits(zim.data(), sim.data(), n)) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Builds, RowKernelBuildTest,
    ::testing::Values(la::kernels::Isa::kBaseline, la::kernels::Isa::kAvx2),
    [](const ::testing::TestParamInfo<la::kernels::Isa>& info) {
      return std::string(info.param == la::kernels::Isa::kAvx2 ? "avx2"
                                                               : "baseline");
    });

// Whether the kernel reports AVX2 for this CPU (Linux); nullopt where
// /proc/cpuinfo is not there to ask.
std::optional<bool> cpuinfo_has_avx2() {
  std::ifstream in("/proc/cpuinfo");
  if (!in) return std::nullopt;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string flag;
    while (words >> flag) {
      if (flag == "avx2") return true;
    }
    return false;
  }
  return std::nullopt;
}

TEST(RowKernelSelectionTest, EntryPointsUseAvx2WhenTheCpuHasIt) {
  // The baseline build always runs; the entry points run the AVX2
  // build exactly when the CPU has AVX2, checked against the CPU flags
  // the operating system reports rather than the library's own probe.
  ASSERT_NE(la::kernels::row_kernels(la::kernels::Isa::kBaseline), nullptr);
  const la::kernels::RowKernels& active = la::kernels::active_row_kernels();
  const bool avx2_runs =
      la::kernels::row_kernels(la::kernels::Isa::kAvx2) != nullptr;
  EXPECT_EQ(active.isa, avx2_runs ? la::kernels::Isa::kAvx2
                                  : la::kernels::Isa::kBaseline);
  EXPECT_EQ(&active, la::kernels::row_kernels(active.isa));
  const std::optional<bool> has_avx2 = cpuinfo_has_avx2();
  if (!has_avx2) GTEST_SKIP() << "no /proc/cpuinfo flags to compare with";
  EXPECT_EQ(avx2_runs, *has_avx2);
  EXPECT_STREQ(active.name, *has_avx2 ? "avx2" : "baseline");
}

TEST(SmwApplyBitwiseTest, MatchesStdComplexTableApply) {
  // Port counts with every row count mod 4 of the C / C^T passes (3, 5,
  // 20, 21), an odd order (one real pole at least, so both table block
  // kinds run), shifts across the band and repeated applies.
  for (const std::size_t p : {3u, 5u, 20u, 21u}) {
    const auto model = test::synthetic_model(1.08, 600 + p, 47, p);
    const macromodel::SimoRealization realization(model);
    ASSERT_EQ(realization.order() % 2, 1u);
    util::Rng rng(p);
    for (const double omega : {0.7, 3.3, 8.9}) {
      const Complex theta(0.0, omega);
      const hamiltonian::SmwShiftInvertOp op(realization, theta);
      const test::TableSmwOp ref(realization, theta);
      for (int rep = 0; rep < 2; ++rep) {
        const ComplexVector x = random_complex_vector(op.dim(), rng);
        ComplexVector y(op.dim()), yr(op.dim());
        op.apply(x, y);
        ref.apply(x, yr);
        EXPECT_TRUE(same_bits(y.data(), yr.data(), y.size()))
            << "p=" << p << " omega=" << omega << " rep=" << rep;
      }
    }
  }
}

// ---- library operators vs. the reference oracle on solver shapes ------

double rel_diff(const ComplexVector& a, const ComplexVector& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return den > 0.0 ? num / den : num;
}

TEST(BackendEquivalenceTest, ImplicitOpTunedMatchesReference) {
  for (const std::uint64_t seed : {2011u, 7u}) {
    const auto model = test::synthetic_model(0.9, seed, 64, 4);
    const macromodel::SimoRealization realization(model);
    const hamiltonian::ImplicitHamiltonianOp tuned(realization);
    const test::ReferenceImplicitOp ref(realization);
    util::Rng rng(seed);
    for (int rep = 0; rep < 3; ++rep) {
      const ComplexVector x = random_complex_vector(tuned.dim(), rng);
      ComplexVector yt(tuned.dim()), yr(tuned.dim());
      tuned.apply(x, yt);
      ref.apply(x, yr);
      EXPECT_LT(rel_diff(yt, yr), 1e-10);
    }
  }
}

TEST(BackendEquivalenceTest, SmwOpTunedMatchesReference) {
  const auto model = test::synthetic_model(1.08, 2011, 64, 4);
  const macromodel::SimoRealization realization(model);
  util::Rng rng(5);
  for (const double omega : {0.8, 3.1, 9.7}) {
    const Complex theta(0.0, omega);
    const hamiltonian::SmwShiftInvertOp tuned(realization, theta);
    const test::ReferenceSmwOp ref(realization, theta);
    const ComplexVector x = random_complex_vector(tuned.dim(), rng);
    ComplexVector yt(tuned.dim()), yr(tuned.dim());
    tuned.apply(x, yt);
    ref.apply(x, yr);
    EXPECT_LT(rel_diff(yt, yr), 1e-9) << "omega=" << omega;
  }
}

// core::arnoldi on plane rows, seen in the oracles' interleaved form,
// and the oracle's MGS2 loop: the invariant and determinism tests run
// the same checks over both.
using ArnoldiFn = test::ReferenceArnoldi (*)(
    const hamiltonian::ComplexLinearOperator&, std::span<const Complex>,
    std::size_t);

test::ReferenceArnoldi library_arnoldi(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const Complex> v0, std::size_t d) {
  return test::to_reference(core::arnoldi(op, v0, d, {}));
}

test::ReferenceArnoldi mgs2_arnoldi(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const Complex> v0, std::size_t d) {
  return test::reference_arnoldi(op, v0, d, {});
}

// The oracle reproduces the historical numerics — the library
// operators and core::arnoldi used to BE these loops — so checking the
// Arnoldi invariants on both paths brackets any refactor drift.
TEST(BackendEquivalenceTest, ArnoldiInvariantsHoldPerBackend) {
  const auto model = test::synthetic_model(0.9, 2011, 64, 4);
  const macromodel::SimoRealization realization(model);
  const hamiltonian::ImplicitHamiltonianOp library_op(realization);
  const test::ReferenceImplicitOp reference_op(realization);
  struct Path {
    const char* name;
    const hamiltonian::ComplexLinearOperator& op;
    ArnoldiFn arnoldi;
  };
  for (const Path& path : {Path{"library", library_op, &library_arnoldi},
                           Path{"reference", reference_op, &mgs2_arnoldi}}) {
    const auto& op = path.op;
    const std::size_t dim = op.dim();
    util::Rng rng(3);
    const ComplexVector v0 = core::random_start_vector(dim, rng);
    for (const std::size_t d : {30u, 60u, 90u}) {
      const auto ar = path.arnoldi(op, v0, d);
      ASSERT_GE(ar.steps, 1u);
      // Orthonormality of the basis rows.
      for (std::size_t i = 0; i <= ar.steps; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          Complex g{};
          const Complex* vi = ar.v_rows.row_ptr(i);
          const Complex* vj = ar.v_rows.row_ptr(j);
          for (std::size_t k = 0; k < dim; ++k) {
            g += std::conj(vi[k]) * vj[k];
          }
          EXPECT_NEAR(std::abs(g - (i == j ? Complex(1.0) : Complex{})),
                      0.0, 1e-9)
              << "path=" << path.name << " d=" << d << " (" << i << ","
              << j << ")";
        }
      }
      // Arnoldi relation: Op v_k = sum_i h(i,k) v_i.
      ComplexVector w(dim);
      for (std::size_t k = 0; k < ar.steps; ++k) {
        op.apply(
            std::span<const Complex>(ar.v_rows.row_ptr(k), dim), w);
        for (std::size_t i = 0; i <= k + 1; ++i) {
          const Complex h = ar.h(i, k);
          const Complex* vi = ar.v_rows.row_ptr(i);
          for (std::size_t q = 0; q < dim; ++q) w[q] -= h * vi[q];
        }
        EXPECT_LT(la::nrm2<Complex>(w), 1e-8)
            << "path=" << path.name << " d=" << d << " k=" << k;
      }
    }
  }
}

TEST(BackendEquivalenceTest, ArnoldiDeflationWorksOnTunedBackend) {
  const auto model = test::synthetic_model(0.9, 9, 48, 3);
  const macromodel::SimoRealization realization(model);
  const hamiltonian::ImplicitHamiltonianOp op(realization);
  const std::size_t dim = op.dim();
  util::Rng rng(4);
  // Lock two orthonormal random directions; the tuned basis must stay
  // orthogonal to them.
  std::vector<ComplexVector> locked;
  for (int i = 0; i < 2; ++i) {
    ComplexVector v = core::random_start_vector(dim, rng);
    for (const auto& q : locked) {
      Complex proj{};
      for (std::size_t k = 0; k < dim; ++k) proj += std::conj(q[k]) * v[k];
      for (std::size_t k = 0; k < dim; ++k) v[k] -= proj * q[k];
    }
    const double norm = la::nrm2<Complex>(v);
    for (auto& x : v) x /= norm;
    locked.push_back(std::move(v));
  }
  const ComplexVector v0 = core::random_start_vector(dim, rng);
  const auto ar = test::to_reference(
      core::arnoldi(op, v0, 20, test::to_pack(locked)));
  ASSERT_GE(ar.steps, 1u);
  for (std::size_t i = 0; i <= ar.steps; ++i) {
    for (const auto& q : locked) {
      Complex g{};
      const Complex* vi = ar.v_rows.row_ptr(i);
      for (std::size_t k = 0; k < dim; ++k) g += std::conj(q[k]) * vi[k];
      EXPECT_NEAR(std::abs(g), 0.0, 1e-9);
    }
  }
}

// ---- split-plane Hessenberg QR: bitwise oracle ------------------------

// The interleaved std::complex Hessenberg QR that la::hessenberg_eig
// replaced, kept verbatim: the split-plane rewrite must reproduce its
// values and vectors bit for bit.  The only addition is `branches`,
// which counts the rarely taken paths so the tests can prove they ran.
struct ReferenceBranches {
  std::size_t exceptional_shifts = 0;
  std::size_t perturbed_denoms = 0;
  std::size_t zero_refs = 0;  ///< deflation tests that used norm_scale
};

struct ReferenceGivens {
  double c = 1.0;
  Complex s{};
};

ReferenceGivens reference_make_givens(Complex f, Complex g) {
  ReferenceGivens rot;
  const double af = std::abs(f), ag = std::abs(g);
  if (ag == 0.0) {
    rot.c = 1.0;
    rot.s = Complex{};
    return rot;
  }
  if (af == 0.0) {
    rot.c = 0.0;
    rot.s = std::conj(g) / ag;
    return rot;
  }
  const double d = std::hypot(af, ag);
  rot.c = af / d;
  rot.s = (f / af) * (std::conj(g) / d);
  return rot;
}

Complex reference_wilkinson_shift(const ComplexMatrix& t, std::size_t m) {
  const Complex a = t(m - 1, m - 1), b = t(m - 1, m);
  const Complex c = t(m, m - 1), d = t(m, m);
  const Complex tr2 = 0.5 * (a + d);
  const Complex disc = std::sqrt(tr2 * tr2 - (a * d - b * c));
  const Complex l1 = tr2 + disc, l2 = tr2 - disc;
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

la::ComplexEigResult reference_hessenberg_eig(
    ComplexMatrix t, bool want_vectors,
    ReferenceBranches* branches = nullptr) {
  const std::size_t n = t.rows();
  la::ComplexEigResult result;
  if (n == 0) return result;

  // Clear below-subdiagonal garbage so the iteration invariant holds.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) t(i, j) = Complex{};
  }

  ComplexMatrix z =
      want_vectors ? ComplexMatrix::identity(n) : ComplexMatrix();
  const double norm_scale = std::max(la::frobenius_norm(t), 1e-300);

  if (n > 1) {
    std::size_t m = n - 1;
    std::size_t iter = 0, total_iter = 0;
    const std::size_t max_total = 60 * n;
    while (true) {
      // Deflation scan.
      std::size_t l = m;
      while (l > 0) {
        const double sub = std::abs(t(l, l - 1));
        double ref = std::abs(t(l - 1, l - 1)) + std::abs(t(l, l));
        if (ref == 0.0) {
          ref = norm_scale;
          if (branches != nullptr) ++branches->zero_refs;
        }
        if (sub <= la::kEps * ref) {
          t(l, l - 1) = Complex{};
          break;
        }
        --l;
      }
      if (l == m) {
        if (m == 0) break;
        --m;
        iter = 0;
        continue;
      }

      ++iter;
      ++total_iter;
      util::require(total_iter < max_total,
                    "hessenberg_eig: QR iteration failed to converge");

      Complex mu;
      if (iter % 11 == 10) {
        // Exceptional shift.
        mu = t(m, m) + Complex(1.5 * std::abs(t(m, m - 1)), 0.0);
        if (branches != nullptr) ++branches->exceptional_shifts;
      } else {
        mu = reference_wilkinson_shift(t, m);
      }

      // Implicit single-shift QR sweep on block [l, m] via Givens chase.
      Complex x = t(l, l) - mu;
      Complex y = t(l + 1, l);
      for (std::size_t k = l; k <= m - 1; ++k) {
        const ReferenceGivens g = reference_make_givens(x, y);
        // Left rotation on rows k, k+1.
        const std::size_t c0 = (k > l) ? k - 1 : l;
        for (std::size_t j = c0; j < n; ++j) {
          const Complex t1 = t(k, j), t2 = t(k + 1, j);
          t(k, j) = g.c * t1 + g.s * t2;
          t(k + 1, j) = -std::conj(g.s) * t1 + g.c * t2;
        }
        // Right rotation on columns k, k+1.
        const std::size_t r1 = std::min(k + 2, m);
        for (std::size_t i = 0; i <= r1; ++i) {
          const Complex t1 = t(i, k), t2 = t(i, k + 1);
          t(i, k) = g.c * t1 + std::conj(g.s) * t2;
          t(i, k + 1) = -g.s * t1 + g.c * t2;
        }
        if (want_vectors) {
          for (std::size_t i = 0; i < n; ++i) {
            const Complex t1 = z(i, k), t2 = z(i, k + 1);
            z(i, k) = g.c * t1 + std::conj(g.s) * t2;
            z(i, k + 1) = -g.s * t1 + g.c * t2;
          }
        }
        if (k > l) t(k + 1, k - 1) = Complex{};  // clear chased bulge residue
        if (k + 1 <= m - 1) {
          x = t(k + 1, k);
          y = t(k + 2, k);
        }
      }
    }
  }

  result.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.values[i] = t(i, i);

  if (want_vectors) {
    // Back-substitution for eigenvectors of the triangular factor, then
    // rotate back through the accumulated Schur vectors.
    result.vectors = ComplexMatrix(n, n);
    const double small = la::kEps * norm_scale;
    for (std::size_t j = 0; j < n; ++j) {
      ComplexVector y_vec(n, Complex{});
      y_vec[j] = Complex(1.0, 0.0);
      const Complex lambda = t(j, j);
      for (std::size_t ii = j; ii-- > 0;) {
        Complex acc{};
        for (std::size_t k = ii + 1; k <= j; ++k) acc += t(ii, k) * y_vec[k];
        Complex denom = t(ii, ii) - lambda;
        if (std::abs(denom) < small) {
          denom = Complex(small, small);  // perturb repeated eigenvalue
          if (branches != nullptr) ++branches->perturbed_denoms;
        }
        y_vec[ii] = -acc / denom;
      }
      // v = Z y, normalized.
      ComplexVector v(n, Complex{});
      for (std::size_t i = 0; i < n; ++i) {
        Complex acc{};
        for (std::size_t k = 0; k <= j; ++k) acc += z(i, k) * y_vec[k];
        v[i] = acc;
      }
      const double nv = la::nrm2<Complex>(v);
      if (nv > 0.0) {
        for (auto& vi : v) vi /= nv;
      }
      result.vectors.set_col(j, v);
    }
  }
  return result;
}

// memcmp equality of the split-plane solve and the reference, with and
// without vectors; `branches` receives the reference's branch counts of
// the with-vectors solve.
void expect_hessenberg_eig_bitwise(const ComplexMatrix& h,
                                   const std::string& label,
                                   ReferenceBranches* branches = nullptr) {
  for (const bool want_vectors : {false, true}) {
    const auto got = la::hessenberg_eig(h, want_vectors);
    const auto ref = reference_hessenberg_eig(
        h, want_vectors, want_vectors ? branches : nullptr);
    ASSERT_EQ(got.values.size(), ref.values.size()) << label;
    EXPECT_EQ(std::memcmp(got.values.data(), ref.values.data(),
                          ref.values.size() * sizeof(Complex)),
              0)
        << label << " values, want_vectors=" << want_vectors;
    ASSERT_EQ(got.vectors.rows(), ref.vectors.rows()) << label;
    ASSERT_EQ(got.vectors.cols(), ref.vectors.cols()) << label;
    const std::size_t entries = ref.vectors.rows() * ref.vectors.cols();
    ASSERT_EQ(entries, want_vectors ? h.rows() * h.rows() : 0u) << label;
    if (entries == 0) continue;  // memcmp must not see a null pointer
    EXPECT_EQ(std::memcmp(got.vectors.data(), ref.vectors.data(),
                          entries * sizeof(Complex)),
              0)
        << label << " vectors, want_vectors=" << want_vectors;
  }
}

ComplexMatrix random_hessenberg(std::size_t d, util::Rng& rng) {
  ComplexMatrix h(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      // Entries below the subdiagonal are garbage the solver must clear.
      h(i, j) = Complex(rng.normal(), rng.normal());
    }
  }
  return h;
}

TEST(HessenbergEigBitwiseTest, RandomHessenbergsMatchReference) {
  util::Rng rng(12);
  for (const std::size_t d : {1u, 2u, 3u, 17u, 60u, 90u}) {
    for (int rep = 0; rep < 3; ++rep) {
      expect_hessenberg_eig_bitwise(random_hessenberg(d, rng),
                                    "random d=" + std::to_string(d));
    }
  }
}

TEST(HessenbergEigBitwiseTest, ArnoldiHessenbergsMatchReference) {
  // d = 60 projections (the paper's restart length, above restart 0's
  // core::kKrylovDim) of the shift-inverted Hamiltonian of a 3-port,
  // order-36 model.
  const auto model = test::synthetic_model(1.05, 2011, 36, 3);
  const macromodel::SimoRealization realization(model);
  util::Rng rng(21);
  for (const double omega : {1.3, 4.7, 8.2}) {
    const hamiltonian::SmwShiftInvertOp op(realization, Complex(0.0, omega));
    const ComplexVector v0 = core::random_start_vector(op.dim(), rng);
    const auto ar = core::arnoldi(op, v0, 60, {});
    ASSERT_EQ(ar.steps, 60u);
    ComplexMatrix h(ar.steps, ar.steps);
    for (std::size_t i = 0; i < ar.steps; ++i) {
      for (std::size_t j = 0; j < ar.steps; ++j) h(i, j) = ar.h(i, j);
    }
    expect_hessenberg_eig_bitwise(h, "arnoldi omega=" + std::to_string(omega));
  }
}

TEST(HessenbergEigBitwiseTest, ExactZeroSubdiagonalsMatchReference) {
  util::Rng rng(31);
  ComplexMatrix h = random_hessenberg(24, rng);
  for (const std::size_t i : {3u, 11u, 12u, 23u}) h(i, i - 1) = Complex{};
  expect_hessenberg_eig_bitwise(h, "zero subdiagonals");
}

TEST(HessenbergEigBitwiseTest, RepeatedEigenvalueMatchesReference) {
  // Upper triangular with a twice-repeated diagonal entry: the
  // back-substitution hits denom == 0 and takes the perturbation branch.
  util::Rng rng(41);
  ComplexMatrix h(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i; j < 6; ++j) {
      h(i, j) = Complex(rng.normal(), rng.normal());
    }
  }
  h(4, 4) = h(1, 1);
  ReferenceBranches branches;
  expect_hessenberg_eig_bitwise(h, "repeated eigenvalue", &branches);
  EXPECT_GT(branches.perturbed_denoms, 0u);
}

TEST(HessenbergEigBitwiseTest, CyclicShiftTakesExceptionalShifts) {
  // The n x n cyclic shift: its eigenvalues are the n-th roots of unity,
  // all of modulus 1, so Wilkinson shifts stall and the
  // iter % 11 == 10 exceptional shift has to break the cycle.
  for (const std::size_t n : {4u, 7u, 12u}) {
    ComplexMatrix h(n, n);
    for (std::size_t i = 1; i < n; ++i) h(i, i - 1) = Complex(1.0, 0.0);
    h(0, n - 1) = Complex(1.0, 0.0);
    ReferenceBranches branches;
    expect_hessenberg_eig_bitwise(h, "cyclic n=" + std::to_string(n),
                                  &branches);
    EXPECT_GT(branches.exceptional_shifts, 0u) << "n=" << n;
  }
}

// The bounded deflation scan skips a row on cheap |re|, |im| bounds and
// falls back to the exact hypot test otherwise.  These inputs sit on
// and around the test's threshold and on the bounds' failure modes;
// each must reach the reference's outcome.

TEST(HessenbergEigBitwiseTest, ZeroDiagonalPairTakesNormScalePath) {
  // Zero trailing diagonal pairs: the exact test's ref is 0 and falls
  // back to norm_scale (the bound is 0 and must not decide).  One
  // subdiagonal is far below kEps * norm_scale (deflates), the other
  // is O(1) (does not).
  util::Rng rng(51);
  for (const double sub : {1e-20, 0.7}) {
    ComplexMatrix h = random_hessenberg(9, rng);
    h(7, 7) = Complex{};
    h(8, 8) = Complex{};
    h(8, 7) = Complex(sub, -0.5 * sub);
    ReferenceBranches branches;
    expect_hessenberg_eig_bitwise(h, "zero diagonal pair sub=" +
                                         std::to_string(sub),
                                  &branches);
    EXPECT_GT(branches.zero_refs, 0u) << "sub=" << sub;
  }
}

TEST(HessenbergEigBitwiseTest, SubdiagonalsAtDeflationThreshold) {
  // Subdiagonals set to factor * kEps * ref (ref = |t(l-1,l-1)| +
  // |t(l,l)|, as the scan computes it) with a complex phase, so the
  // exact test lands just inside (0.25), on (1) and just outside (4)
  // the threshold, and the bounds decide the wide cases (16, 64).
  util::Rng rng(52);
  for (const double factor : {0.25, 1.0, 4.0, 16.0, 64.0}) {
    ComplexMatrix h = random_hessenberg(14, rng);
    for (const std::size_t l : {3u, 7u, 13u}) {
      const double ref = std::abs(h(l - 1, l - 1)) + std::abs(h(l, l));
      h(l, l - 1) = factor * la::kEps * ref * Complex(0.6, 0.8);
    }
    expect_hessenberg_eig_bitwise(h, "threshold factor=" +
                                         std::to_string(factor));
  }
}

// The library and the reference either both throw or both return the
// same values and vectors, where a NaN matches any NaN (the contract is
// bit-identity for finite input).
void expect_same_outcome(const ComplexMatrix& h, const std::string& label) {
  const auto same = [](const Complex* a, const Complex* b, std::size_t n) {
    for (std::size_t i = 0; i < 2 * n; ++i) {
      const double x = reinterpret_cast<const double*>(a)[i];
      const double y = reinterpret_cast<const double*>(b)[i];
      if (std::isnan(x) && std::isnan(y)) continue;
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
    return true;
  };
  for (const bool want_vectors : {false, true}) {
    la::ComplexEigResult got, ref;
    bool got_threw = false, ref_threw = false;
    try {
      got = la::hessenberg_eig(h, want_vectors);
    } catch (const std::runtime_error&) {
      got_threw = true;
    }
    try {
      ref = reference_hessenberg_eig(h, want_vectors);
    } catch (const std::runtime_error&) {
      ref_threw = true;
    }
    ASSERT_EQ(got_threw, ref_threw) << label;
    if (ref_threw) continue;
    ASSERT_EQ(got.values.size(), ref.values.size()) << label;
    EXPECT_TRUE(same(got.values.data(), ref.values.data(), ref.values.size()))
        << label << " values, want_vectors=" << want_vectors;
    ASSERT_EQ(got.vectors.rows(), ref.vectors.rows()) << label;
    const std::size_t entries = ref.vectors.rows() * ref.vectors.cols();
    if (entries == 0) continue;
    EXPECT_TRUE(same(got.vectors.data(), ref.vectors.data(), entries))
        << label << " vectors, want_vectors=" << want_vectors;
  }
}

TEST(HessenbergEigBitwiseTest, ExtremeMagnitudesMatchReference) {
  // Near 1e+300 the bounds' sums and the doubled sum overflow; near
  // 1e-300 kEps * bound underflows.  Both fall back to the exact test.
  // Mixed scales put huge diagonals next to tiny subdiagonals and the
  // reverse.
  util::Rng rng(53);
  for (const double s : {1e300, 1e-300}) {
    ComplexMatrix h = random_hessenberg(8, rng);
    for (std::size_t i = 0; i < 8; ++i) {
      for (std::size_t j = 0; j < 8; ++j) h(i, j) *= s;
    }
    expect_same_outcome(h, "uniform scale=" + std::to_string(s));
  }
  for (const double s : {1e300, 1e-300}) {
    ComplexMatrix h = random_hessenberg(8, rng);
    for (std::size_t i = 0; i < 8; ++i) h(i, i) *= s;
    for (std::size_t i = 1; i < 8; ++i) h(i, i - 1) /= s;
    expect_same_outcome(h, "diagonal scale=" + std::to_string(s));
  }
}

TEST(HessenbergEigBitwiseTest, NanEntryMatchesReference) {
  // A NaN on the subdiagonal (where std::max may hide it from the
  // bound), on the diagonal (NaN bound) and above the diagonal.
  util::Rng rng(54);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto& [i, j, nan_im] :
       {std::tuple{5u, 4u, false}, std::tuple{5u, 4u, true},
        std::tuple{3u, 3u, false}, std::tuple{1u, 6u, true}}) {
    ComplexMatrix h = random_hessenberg(8, rng);
    h(i, j) = nan_im ? Complex(h(i, j).real(), nan) : Complex(nan, 0.5);
    expect_same_outcome(h, "nan at (" + std::to_string(i) + "," +
                               std::to_string(j) + ")");
  }
}

// ---- row-sweep Householder QR: bitwise oracle --------------------------

bool same_bits(const RealMatrix& a, const RealMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||  // memcmp must not see a null pointer
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_bits(const RealVector& a, const RealVector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// memcmp equality of r() and solve(b) between the library
// and reference_qr.  A rank-deficient `a` must make both solves throw.
void expect_qr_bitwise(const RealMatrix& a, const std::string& label,
                       util::Rng& rng, bool full_rank = true) {
  const la::QrFactorization got(a);
  const test::ReferenceQr ref = test::reference_qr(a);
  EXPECT_TRUE(same_bits(got.r(), ref.r())) << label << " r()";
  const RealVector b = random_real_vector(a.rows(), rng);
  if (full_rank) {
    EXPECT_TRUE(same_bits(got.solve(b), ref.solve(b))) << label << " solve()";
  } else {
    EXPECT_THROW((void)got.solve(b), std::runtime_error) << label;
    EXPECT_THROW((void)ref.solve(b), std::runtime_error) << label;
  }
}

TEST(QrRowSweepBitwiseTest, SmallAndRandomShapesMatchReference) {
  util::Rng rng(51);
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {3, 2},
                            {17, 17},
                            {37, 5}}) {
    expect_qr_bitwise(test::random_real_matrix(m, n, rng),
                      std::to_string(m) + "x" + std::to_string(n), rng);
  }
}

TEST(QrRowSweepBitwiseTest, SigmaSystemsMatchReference) {
  // vector_fit's sigma least squares: (rows, cols, ports) of 2-, 3- and
  // 4-port fits over 200 samples, exact zeros interleaved as in the
  // real system.
  util::Rng rng(52);
  for (const auto& [m, n, p] : {std::tuple<std::size_t, std::size_t,
                                           std::size_t>{800, 26, 2},
                               {1200, 45, 3},
                               {1600, 64, 4}}) {
    const RealMatrix a = test::sigma_pattern_matrix(m, n, p, rng);
    expect_qr_bitwise(a, "sigma " + std::to_string(m) + "x" +
                             std::to_string(n), rng);
  }
}

TEST(QrRowSweepBitwiseTest, ZeroColumnTakesTauZeroPath) {
  util::Rng rng(53);
  RealMatrix a = test::random_real_matrix(12, 6, rng);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 2) = 0.0;
  expect_qr_bitwise(a, "zero column", rng, /*full_rank=*/false);
  // The zero column survives the earlier reflectors as zeros, so its
  // diagonal entry is the skipped reflector's exact 0.
  EXPECT_EQ(la::QrFactorization(a).r()(2, 2), 0.0);
}

TEST(QrRowSweepBitwiseTest, NegativeZerosMatchReference) {
  util::Rng rng(54);
  RealMatrix a = test::random_real_matrix(15, 7, rng);
  for (std::size_t i = 0; i < a.rows(); i += 2) a(i, 1) = -0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) a(j, j) = -0.0;
  a(14, 0) = -0.0;
  a(3, 6) = -0.0;
  expect_qr_bitwise(a, "negative zeros", rng);
}

// ---- Locking Ritz pairs: bitwise oracle --------------------------------

bool same_plane_bits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() && same_bits(a.data(), b.data(), a.size());
}

// One lock_ritz_pairs call on the pack against the oracle: the same
// count and the same bits in the rows appended, the rows before left
// as they were.
::testing::AssertionResult lock_matches(
    const core::ArnoldiResult& ar,
    const std::vector<const core::RitzPair*>& batch,
    std::vector<double>& locked) {
  const std::vector<double> before = locked;
  const std::size_t appended = core::lock_ritz_pairs(ar, batch, locked);
  const auto ref =
      test::reference_lock_ritz_pairs(test::to_reference(ar), batch);
  if (appended != ref.size()) {
    return ::testing::AssertionFailure()
           << "appended " << appended << " rows, the oracle " << ref.size();
  }
  std::vector<double> expected = before;
  const std::vector<double> rows = test::to_pack(ref);
  expected.insert(expected.end(), rows.begin(), rows.end());
  if (!same_plane_bits(locked, expected)) {
    return ::testing::AssertionFailure()
           << "locked sets differ after " << appended << " new rows";
  }
  return ::testing::AssertionSuccess();
}

TEST(RitzLockBitwiseTest, RestartBatchesMatchReference) {
  // A shift-inverted operator, as in the single-shift iteration: each
  // of several restarts deflated by the rows locked so far locks every
  // Ritz pair it has, then a batch that repeats its first and last
  // pairs, whose copies are dropped.
  const auto model = test::synthetic_model(1.08, 2011, 64, 4);
  const macromodel::SimoRealization realization(model);
  const hamiltonian::SmwShiftInvertOp op(realization, Complex(0.0, 2.5));
  const std::size_t dim = op.dim();
  util::Rng rng(61);
  std::vector<double> locked;
  for (int restart = 0; restart < 3; ++restart) {
    const ComplexVector v0 = core::random_start_vector(dim, rng);
    const auto ar = core::arnoldi(op, v0, 30, locked);
    const auto pairs = core::ritz_pairs(ar);
    ASSERT_TRUE(lock_matches(ar, test::pair_ptrs(pairs), locked))
        << "restart " << restart;
    const std::vector<const core::RitzPair*> repeats = {
        &pairs.front(), &pairs.back(), &pairs.front()};
    std::vector<double> scratch;
    ASSERT_TRUE(lock_matches(ar, repeats, scratch)) << "restart " << restart;
    EXPECT_EQ(scratch.size(), 2 * 2 * dim) << "restart " << restart;
  }
  EXPECT_EQ(locked.size(), 90 * 2 * dim);
}

TEST(RitzLockBitwiseTest, ZeroCoordinatesMatchReference) {
  // A random (not orthonormal) basis with negative zeros, and one-pair
  // batches whose coordinates carry exact zeros of either sign at even,
  // odd and adjacent positions: the library adds every basis row with
  // negated coefficients, its oracle only the nonzero-coefficient
  // rows, so each zero must be an exact no-op.  An all-zero pair is
  // dropped.
  util::Rng rng(63);
  core::ArnoldiResult ar;
  ar.steps = 12;
  ar.dim = 37;
  for (std::size_t r = 0; r <= ar.steps; ++r) {
    const core::PlaneVector row =
        test::to_planes(random_complex_vector(ar.dim, rng));
    ar.basis.insert(ar.basis.end(), row.begin(), row.end());
  }
  ar.basis[2 * 37 * 1 + 4] = -0.0;       // re of row 1, element 4
  ar.basis[2 * 37 * 2 + 37 + 7] = -0.0;  // im of row 2, element 7
  const std::vector<std::vector<std::size_t>> zero_sets = {
      {0, 3, 6, 7, 10},  // even, odd and adjacent: 7 rows remain
      {1, 2, 11},        // adjacent and the last row: 9 rows remain
      {4, 9},            // 10 rows remain
      {5},               // 11 rows remain
      {},                // 12 rows remain
      {0, 2, 3, 4, 5, 6, 7, 9, 10, 11},  // rows 1 and 8 remain
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 11},  // one lone row remains
      {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},  // all zero
  };
  std::vector<double> locked;
  std::vector<core::RitzPair> pairs;
  for (const auto& zeros : zero_sets) {
    core::RitzPair pair;
    pair.coords = random_complex_vector(ar.steps, rng);
    for (std::size_t k = 0; k < zeros.size(); ++k) {
      pair.coords[zeros[k]] =
          k % 2 == 0 ? Complex{} : Complex(-0.0, -0.0);
    }
    std::vector<double> one;
    EXPECT_TRUE(lock_matches(ar, {&pair}, one))
        << zeros.size() << " zero coefficient(s)";
    EXPECT_EQ(one.size(), zeros.size() == ar.steps ? 0u : 2 * ar.dim);
    pairs.push_back(std::move(pair));
  }
  // All eight as one batch: seven independent directions.
  EXPECT_TRUE(lock_matches(ar, test::pair_ptrs(pairs), locked));
  EXPECT_EQ(locked.size(), 7 * 2 * ar.dim);
}

// ---- plane-row CGS2 Arnoldi: bitwise oracle ---------------------------

// memcmp equality of core::arnoldi and the interleaved CGS2 loop it
// replaced in h, basis, steps and matvecs.
void expect_arnoldi_bitwise(const hamiltonian::ComplexLinearOperator& op,
                            const ComplexVector& v0, std::size_t d,
                            const std::vector<ComplexVector>& locked,
                            const std::string& label) {
  const core::ArnoldiResult got =
      core::arnoldi(op, v0, d, test::to_pack(locked));
  const test::ReferenceArnoldi ref =
      test::interleaved_arnoldi(op, v0, d, locked);
  ASSERT_EQ(got.steps, ref.steps) << label;
  EXPECT_EQ(got.matvecs, ref.matvecs) << label;
  ASSERT_EQ(got.h.rows(), ref.h.rows()) << label;
  ASSERT_EQ(got.h.cols(), ref.h.cols()) << label;
  EXPECT_TRUE(same_bits(got.h.data(), ref.h.data(), ref.h.size()))
      << label << " h";
  ASSERT_EQ(got.dim, op.dim()) << label;
  core::PlaneVector ref_basis;
  for (std::size_t k = 0; k < ref.v_rows.rows(); ++k) {
    const core::PlaneVector row = test::to_planes(
        std::span<const Complex>(ref.v_rows.row_ptr(k), ref.v_rows.cols()));
    ref_basis.insert(ref_basis.end(), row.begin(), row.end());
  }
  EXPECT_TRUE(same_plane_bits(got.basis, ref_basis)) << label << " basis";
}

// `count` orthonormal locked vectors built as the single-shift
// iteration builds them: the first Ritz pairs of a run, locked as one
// batch.
std::vector<ComplexVector> locked_from_ritz(
    const hamiltonian::ComplexLinearOperator& op, std::size_t count,
    util::Rng& rng) {
  std::vector<double> locked;
  const auto ar = core::arnoldi(
      op, core::random_start_vector(op.dim(), rng),
      std::min<std::size_t>(12, op.dim() - 2), {});
  const auto pairs = core::ritz_pairs(ar);
  core::lock_ritz_pairs(
      ar, test::pair_ptrs(std::span(pairs).first(count)), locked);
  return test::from_pack(locked, op.dim());
}

TEST(PlaneArnoldiBitwiseTest, EveryDimModFourAndLockedCountMatches) {
  // Dense operators cover odd dims; each dim mod 4 runs the tail paths
  // of the pair and lone-row kernels, and 0-3 locked vectors run the
  // locked pairing with and without a lone last row.
  util::Rng rng(71);
  for (const std::size_t dim : {40u, 41u, 42u, 43u}) {
    const test::DenseOp op(test::random_complex_matrix(dim, dim, rng));
    for (std::size_t nl = 0; nl <= 3; ++nl) {
      const auto locked = locked_from_ritz(op, nl, rng);
      ASSERT_EQ(locked.size(), nl);
      const ComplexVector v0 = core::random_start_vector(dim, rng);
      for (const std::size_t d : {1u, 2u, 7u, 25u}) {
        expect_arnoldi_bitwise(op, v0, d, locked,
                               "dense dim=" + std::to_string(dim) +
                                   " locked=" + std::to_string(nl) +
                                   " d=" + std::to_string(d));
      }
    }
  }
}

TEST(PlaneArnoldiBitwiseTest, SolverOperatorsMatch) {
  // The solver's operators: shift-inverted (dim 2 * 64 = 128 and
  // 2 * 63 = 126, i.e. 0 and 2 mod 4) and the implicit Hamiltonian of
  // the |lambda|max estimate, at the paper's d = 60.
  for (const std::size_t states : {64u, 63u}) {
    const auto model = test::synthetic_model(1.08, 2011, states, 3);
    const macromodel::SimoRealization realization(model);
    const hamiltonian::SmwShiftInvertOp smw(realization, Complex(0.0, 2.5));
    const hamiltonian::ImplicitHamiltonianOp imp(realization);
    util::Rng rng(72);
    for (std::size_t nl = 0; nl <= 3; ++nl) {
      const auto locked = locked_from_ritz(smw, nl, rng);
      const ComplexVector v0 = core::random_start_vector(smw.dim(), rng);
      expect_arnoldi_bitwise(smw, v0, 60, locked,
                             "smw dim=" + std::to_string(smw.dim()) +
                                 " locked=" + std::to_string(nl));
    }
    const ComplexVector v0 = core::random_start_vector(imp.dim(), rng);
    expect_arnoldi_bitwise(imp, v0, 40, {},
                           "implicit dim=" + std::to_string(imp.dim()));
  }
}

TEST(PlaneArnoldiBitwiseTest, BreakdownRunMatches) {
  // A start vector inside a 3-dimensional invariant subspace of a
  // diagonal operator: the run breaks down at step 3 of 10, with and
  // without a locked vector outside that subspace.
  ComplexMatrix m(21, 21);
  for (std::size_t i = 0; i < 21; ++i) {
    m(i, i) = Complex(1.0 + static_cast<double>(i), 0.5);
  }
  const test::DenseOp op(m);
  ComplexVector v0(21, Complex{});
  v0[2] = Complex(0.3, -1.0);
  v0[9] = Complex(1.1, 0.2);
  v0[17] = Complex(-0.7, 0.4);
  ComplexVector e5(21, Complex{});
  e5[5] = Complex(1.0, 0.0);
  for (const auto& locked :
       {std::vector<ComplexVector>{}, std::vector<ComplexVector>{e5}}) {
    expect_arnoldi_bitwise(op, v0, 10, locked,
                           "breakdown locked=" +
                               std::to_string(locked.size()));
    const auto ar = core::arnoldi(op, v0, 10, test::to_pack(locked));
    EXPECT_EQ(ar.steps, 3u);
    EXPECT_EQ(ar.h(3, 2), Complex{});
  }
}

// ---- determinism: bit-identical across runs and threads ---------------

TEST(BackendDeterminismTest, TunedAppliesAreBitIdenticalAcrossThreads) {
  const auto model = test::synthetic_model(1.08, 2011, 64, 4);
  const macromodel::SimoRealization realization(model);
  const hamiltonian::SmwShiftInvertOp smw(realization, Complex(0.0, 2.5));
  const hamiltonian::ImplicitHamiltonianOp imp(realization);
  util::Rng rng(6);
  const ComplexVector x = random_complex_vector(smw.dim(), rng);

  ComplexVector smw_serial(smw.dim()), imp_serial(imp.dim());
  smw.apply(x, smw_serial);
  imp.apply(x, imp_serial);

  // Re-apply serially: same bits.
  ComplexVector again(smw.dim());
  smw.apply(x, again);
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i], smw_serial[i]);
  }

  // Concurrent applies on the shared const operators: every thread
  // reproduces the serial bits (thread_local scratch, no data races).
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ComplexVector ys(smw.dim()), yi(imp.dim());
      for (int rep = 0; rep < 8; ++rep) {
        smw.apply(x, ys);
        imp.apply(x, yi);
        for (std::size_t i = 0; i < ys.size(); ++i) {
          if (ys[i] != smw_serial[i] || yi[i] != imp_serial[i]) {
            ++mismatches[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(BackendDeterminismTest, ArnoldiRunsAreBitIdenticalPerBackend) {
  const auto model = test::synthetic_model(0.9, 13, 48, 3);
  const macromodel::SimoRealization realization(model);
  const hamiltonian::ImplicitHamiltonianOp op(realization);
  util::Rng rng(8);
  const ComplexVector v0 = core::random_start_vector(op.dim(), rng);
  for (const ArnoldiFn arnoldi : {&library_arnoldi, &mgs2_arnoldi}) {
    const auto a = arnoldi(op, v0, 25);
    const auto b = arnoldi(op, v0, 25);
    ASSERT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.v_rows.size(), b.v_rows.size());
    EXPECT_TRUE(same_bits(a.v_rows.data(), b.v_rows.data(), a.v_rows.size()));
    EXPECT_TRUE(same_bits(a.h.data(), b.h.data(), a.h.size()));
  }
}

}  // namespace
}  // namespace phes
