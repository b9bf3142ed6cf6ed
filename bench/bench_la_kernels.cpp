// bench_la_kernels — ctest-registered BENCH-JSON smoke over the dense
// kernel substrate on the shapes the solver actually uses:
//
//   - d x d complex Hessenberg eigensolve at the two restart lengths
//     of a shift (core::kConfirmDim and core::kKrylovDim), on random
//     Hessenbergs and on the d = kKrylovDim projection of a real
//     Arnoldi run (SmwShiftInvertOp of a 3-port, order-36 model);
//   - p x p complex singular values, p = 18/56/83 (passivity sampling);
//   - 2p x 2p complex LU factor + fused multi-RHS solve (the SMW
//     kernel), with a correctness check of solve_many against the
//     column-wise solve;
//   - one d = kKrylovDim CGS2 Arnoldi at Table I case 1's shape (the
//     SmwShiftInvertOp of the n = 1000, p = 20 surrogate, dim 2000)
//     with 0 and 6 locked vectors: core::arnoldi on plane rows against
//     the interleaved oracle interleaved_arnoldi of
//     tests/reference_kernels.hpp, whose h and basis it must reproduce
//     bit for bit (both timings printed, no timing gate);
//   - the CGS2 kernels alone on that run's dim 2000 x d-row basis:
//     dotc_rows and axpy_rows throughput in GF/s (8 flops per row
//     element) at each lane width the CPU runs ("isa": "baseline" for
//     two lanes, "avx2" for four), with dotc_rows checked bit for bit
//     against its scalar-accumulator oracle (scalar_dotc_rows),
//     axpy_rows against the interleaved kernels, and every width
//     against the baseline build (no timing gate);
//   - gemv_planes and gemv_t_planes at Table I case 1's C shape
//     (20 x 1000) in GF/s at each width, every width checked bit for
//     bit against the baseline build;
//   - gemm on residue-matrix shapes;
//   - vector_fit's sigma least squares: the per-output 400x26 block
//     [Phi, 1 | -H_i Phi | H_i] of the fast solve (12 poles, 200
//     samples), and the dense 800x26 / 1200x45 / 1600x64 systems it
//     replaced, with the real systems' exact-zero block pattern:
//     la::least_squares (row-sweep QR) against the column-at-a-time
//     oracle reference_qr of tests/reference_kernels.hpp, whose
//     solution it must reproduce bit for bit.
//
// Every timing is the best of a few calls after one untimed warm-up
// call, so first-touch page faults and cold caches stay out of the
// figures.  Prints one BENCH JSON line per shape; exits non-zero if any
// correctness expectation fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <tuple>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/kernels.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/qr.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"
#include "phes/util/timer.hpp"
#include "bench_support.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace {

using namespace phes;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

la::ComplexMatrix random_complex(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::ComplexMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m(i, j) = la::Complex(rng.normal(), rng.normal());
    }
  }
  return m;
}

la::RealMatrix random_real(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::RealMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = rng.normal();
  }
  return m;
}

/// Best-of-reps wall time of `body` in seconds, after one untimed
/// warm-up call.
template <typename F>
double best_seconds(int reps, F&& body) {
  body();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    body();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Every build of the row kernels this CPU runs, baseline first.
std::vector<const la::kernels::RowKernels*> builds() {
  std::vector<const la::kernels::RowKernels*> out;
  using la::kernels::Isa;
  for (const Isa isa : {Isa::kBaseline, Isa::kAvx2}) {
    if (const auto* k = la::kernels::row_kernels(isa)) out.push_back(k);
  }
  return out;
}

}  // namespace

int main() {
  // Ritz problem: projected Hessenberg eigensolve per Arnoldi restart.
  for (const std::size_t d : {core::kConfirmDim, core::kKrylovDim}) {
    la::ComplexMatrix h = random_complex(d, 1);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j + 1 < i; ++j) h(i, j) = la::Complex{};
    }
    std::size_t values = 0;
    const double sec = best_seconds(3, [&] {
      const auto eig = la::hessenberg_eig(h, true);
      values = eig.values.size();
    });
    expect(values == d, "hessenberg_eig returns d eigenvalues");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"hessenberg_eig\","
        "\"d\":%zu,\"seconds\":%.6f}\n",
        d, sec);
  }

  // The same solve on a real Ritz problem: the d = kKrylovDim
  // Hessenberg of an Arnoldi run on a shift-inverted Hamiltonian.
  {
    macromodel::SyntheticModelSpec spec;
    spec.ports = 3;
    spec.states = 36;
    spec.seed = 2011;
    const macromodel::SimoRealization realization(
        macromodel::make_synthetic_model(spec));
    const hamiltonian::SmwShiftInvertOp op(realization,
                                           la::Complex(0.0, 4.7));
    util::Rng rng(7);
    const la::ComplexVector v0 = core::random_start_vector(op.dim(), rng);
    const core::ArnoldiResult ar =
        core::arnoldi(op, v0, core::kKrylovDim, {});
    const std::size_t d = ar.steps;
    la::ComplexMatrix h(d, d);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) h(i, j) = ar.h(i, j);
    }
    std::size_t values = 0;
    const double sec = best_seconds(3, [&] {
      const auto eig = la::hessenberg_eig(h, true);
      values = eig.values.size();
    });
    expect(d == core::kKrylovDim && values == d,
           "arnoldi hessenberg_eig returns d eigenvalues");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"hessenberg_eig\","
        "\"source\":\"arnoldi\",\"d\":%zu,\"seconds\":%.6f}\n",
        d, sec);
  }

  // Passivity sampling: p x p complex singular values.
  for (const std::size_t p : {18u, 56u, 83u}) {
    const la::ComplexMatrix h = random_complex(p, 2);
    double sigma_max = 0.0;
    const double sec = best_seconds(3, [&] {
      const auto sigma = la::complex_singular_values(h);
      sigma_max = sigma.empty() ? 0.0 : sigma.front();
    });
    expect(std::isfinite(sigma_max) && sigma_max > 0.0,
           "singular values are finite and positive");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"complex_svd\","
        "\"p\":%zu,\"seconds\":%.6f}\n",
        p, sec);
  }

  // SMW kernel: 2p x 2p complex LU factor + fused multi-RHS solve.
  for (const std::size_t p : {18u, 56u, 83u}) {
    la::ComplexMatrix k = random_complex(2 * p, 3);
    for (std::size_t i = 0; i < 2 * p; ++i) {
      k(i, i) += la::Complex(6.0, 0.0);
    }
    const double factor_sec = best_seconds(3, [&] {
      const la::LuFactorization<la::Complex> lu(k);
      (void)lu;
    });
    const la::LuFactorization<la::Complex> lu(k);
    la::ComplexMatrix b(2 * p, 4);
    util::Rng rng(4);
    for (std::size_t i = 0; i < 2 * p; ++i) {
      for (std::size_t c = 0; c < 4; ++c) {
        b(i, c) = la::Complex(rng.normal(), rng.normal());
      }
    }
    la::ComplexMatrix x(1, 1);
    const double solve_sec = best_seconds(5, [&] { x = lu.solve_many(b); });
    // solve_many must be bit-identical to the column-wise solve.
    bool identical = true;
    for (std::size_t c = 0; c < 4; ++c) {
      la::ComplexVector col(2 * p);
      for (std::size_t i = 0; i < 2 * p; ++i) col[i] = b(i, c);
      const la::ComplexVector ref = lu.solve(col);
      for (std::size_t i = 0; i < 2 * p; ++i) {
        if (x(i, c) != ref[i]) identical = false;
      }
    }
    expect(identical, "solve_many is bit-identical to column solves");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"smw_lu\","
        "\"p\":%zu,\"factor_seconds\":%.6f,\"solve4_seconds\":%.6f}\n",
        p, factor_sec, solve_sec);
  }

  // CGS2 Arnoldi at Table I case 1's shape, plane rows against the
  // interleaved oracle.  The 6 locked rows are the first Ritz pairs of
  // a first run, locked as the single-shift iteration locks them.
  {
    const macromodel::SimoRealization realization(
        bench::build_case_model(bench::table1_cases().front()));
    const hamiltonian::SmwShiftInvertOp op(realization,
                                           la::Complex(0.0, 50.0));
    util::Rng rng(9);
    const std::size_t d = core::kKrylovDim;
    const std::size_t row = 2 * op.dim();
    std::vector<double> locked;
    {
      const auto first =
          core::arnoldi(op, core::random_start_vector(op.dim(), rng), d, {});
      const auto pairs = core::ritz_pairs(first);
      core::lock_ritz_pairs(
          first, test::pair_ptrs(std::span(pairs).first(6)), locked);
    }
    expect(locked.size() == 6 * row, "cgs2_arnoldi locks 6 Ritz pairs");
    const la::ComplexVector v0 = core::random_start_vector(op.dim(), rng);
    for (const std::size_t nl : {std::size_t{0}, locked.size() / row}) {
      const std::span<const double> lk(locked.data(), nl * row);
      const std::vector<la::ComplexVector> ref_locked =
          test::from_pack(lk, op.dim());
      core::ArnoldiResult ar;
      test::ReferenceArnoldi ref;
      const double sec =
          best_seconds(3, [&] { ar = core::arnoldi(op, v0, d, lk); });
      const double ref_sec = best_seconds(
          3, [&] { ref = test::interleaved_arnoldi(op, v0, d, ref_locked); });
      const test::ReferenceArnoldi got = test::to_reference(ar);
      expect(ar.steps == d && got.steps == ref.steps &&
                 got.matvecs == ref.matvecs &&
                 got.h.size() == ref.h.size() &&
                 std::memcmp(got.h.data(), ref.h.data(),
                             ref.h.size() * sizeof(la::Complex)) == 0 &&
                 got.v_rows.size() == ref.v_rows.size() &&
                 std::memcmp(got.v_rows.data(), ref.v_rows.data(),
                             ref.v_rows.size() * sizeof(la::Complex)) == 0,
             "cgs2_arnoldi is bit-identical to the interleaved oracle");
      std::printf(
          "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"cgs2_arnoldi\","
          "\"dim\":%zu,\"d\":%zu,\"locked\":%zu,\"seconds\":%.6f,"
          "\"interleaved_seconds\":%.6f,\"speedup\":%.3f}\n",
          op.dim(), d, nl, sec, ref_sec, ref_sec / sec);
    }

    // The CGS2 kernels alone on that basis: one dotc_rows and one
    // axpy_rows sweep of w over all d rows, 8 flops per row element
    // each.  dotc_rows must match its scalar-accumulator oracle and
    // axpy_rows the interleaved kernels, bit for bit.
    const core::ArnoldiResult ar = core::arnoldi(op, v0, d, {});
    const std::size_t dim = op.dim();
    const std::size_t rows = d;
    const core::PlaneVector w = test::to_planes(
        core::random_start_vector(dim, rng));
    std::vector<la::Complex> proj(rows), ref_proj(rows);
    la::kernels::dotc_rows(ar.basis.data(), 2 * dim, rows, w.data(), dim,
                           proj.data());
    test::scalar_dotc_rows(ar.basis.data(), 2 * dim, rows, w.data(), dim,
                           ref_proj.data());
    expect(std::memcmp(proj.data(), ref_proj.data(),
                       rows * sizeof(la::Complex)) == 0,
           "dotc_rows is bit-identical to the scalar oracle");
    core::PlaneVector w2 = w;
    la::kernels::axpy_rows(ar.basis.data(), 2 * dim, rows, proj.data(),
                           w2.data(), dim);
    const test::ReferenceArnoldi ref_basis = test::to_reference(ar);
    std::vector<const la::Complex*> iptrs(rows);
    for (std::size_t j = 0; j < rows; ++j) {
      iptrs[j] = ref_basis.v_rows.row_ptr(j);
    }
    la::ComplexVector wi = test::from_planes(w);
    test::interleaved_axpy_ptrs(iptrs.data(), rows, proj.data(), wi.data(),
                                dim);
    const core::PlaneVector wi_planes = test::to_planes(wi);
    expect(std::memcmp(w2.data(), wi_planes.data(),
                       2 * dim * sizeof(double)) == 0,
           "axpy_rows is bit-identical to the interleaved oracle");

    // Each timed sample is `sweeps` calls, so it spans milliseconds.
    // Every build this CPU runs is timed, and each must leave the
    // baseline build's bits.
    const int sweeps = 200;
    const double flops = 8.0 * static_cast<double>(dim * rows) * sweeps;
    std::vector<la::Complex> base_proj;
    core::PlaneVector base_w;
    for (const la::kernels::RowKernels* k : builds()) {
      std::vector<la::Complex> kproj(rows);
      k->dotc_rows(ar.basis.data(), 2 * dim, rows, w.data(), dim,
                   kproj.data());
      core::PlaneVector kw = w;
      k->axpy_rows(ar.basis.data(), 2 * dim, rows, kproj.data(), kw.data(),
                   dim);
      if (base_proj.empty()) {
        base_proj = kproj;
        base_w = kw;
      }
      expect(std::memcmp(kproj.data(), base_proj.data(),
                         rows * sizeof(la::Complex)) == 0 &&
                 std::memcmp(kw.data(), base_w.data(),
                             2 * dim * sizeof(double)) == 0,
             "dotc_rows and axpy_rows give the same bits at every width");
      const double dot_sec = best_seconds(5, [&] {
        for (int r = 0; r < sweeps; ++r) {
          k->dotc_rows(ar.basis.data(), 2 * dim, rows, w.data(), dim,
                       proj.data());
        }
      });
      const double axpy_sec = best_seconds(5, [&] {
        for (int r = 0; r < sweeps; ++r) {
          k->axpy_rows(ar.basis.data(), 2 * dim, rows, ref_proj.data(),
                       w2.data(), dim);
        }
      });
      std::printf(
          "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"plane_rows\","
          "\"isa\":\"%s\",\"dim\":%zu,\"rows\":%zu,\"dotc_gflops\":%.2f,"
          "\"axpy_gflops\":%.2f}\n",
          k->name, dim, rows, flops / dot_sec * 1e-9,
          flops / axpy_sec * 1e-9);
    }
  }

  // The C and C^T products of Table I case 1's operators (p = 20 rows
  // of n = 1000) at every width, 4 flops per matrix element each way.
  {
    const std::size_t m = 20, n = 1000;
    util::Rng rng(10);
    std::vector<double> c(m * n), x(2 * n), t(2 * m);
    for (auto& v : c) v = rng.normal();
    for (auto& v : x) v = rng.normal();
    for (auto& v : t) v = rng.normal();
    std::vector<double> base_y, base_z;
    const int sweeps = 2000;
    const double flops = 4.0 * static_cast<double>(m * n) * sweeps;
    for (const la::kernels::RowKernels* k : builds()) {
      std::vector<double> y(2 * m), z(2 * n);
      k->gemv_planes(c.data(), m, n, x.data(), x.data() + n, y.data(),
                     y.data() + m);
      k->gemv_t_planes(c.data(), m, n, t.data(), t.data() + m, z.data(),
                       z.data() + n);
      if (base_y.empty()) {
        base_y = y;
        base_z = z;
      }
      expect(y == base_y && z == base_z,
             "gemv_planes and gemv_t_planes give the same bits at every "
             "width");
      const double gemv_sec = best_seconds(5, [&] {
        for (int r = 0; r < sweeps; ++r) {
          k->gemv_planes(c.data(), m, n, x.data(), x.data() + n, y.data(),
                         y.data() + m);
        }
      });
      const double gemv_t_sec = best_seconds(5, [&] {
        for (int r = 0; r < sweeps; ++r) {
          k->gemv_t_planes(c.data(), m, n, t.data(), t.data() + m, z.data(),
                           z.data() + n);
        }
      });
      std::printf(
          "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"gemv_planes\","
          "\"isa\":\"%s\",\"m\":%zu,\"n\":%zu,\"gemv_gflops\":%.2f,"
          "\"gemv_t_gflops\":%.2f}\n",
          k->name, m, n, flops / gemv_sec * 1e-9,
          flops / gemv_t_sec * 1e-9);
    }
  }

  // gemm on residue-matrix shapes.
  for (const std::size_t n : {64u, 128u, 256u}) {
    const la::RealMatrix a = random_real(n, 5);
    const la::RealMatrix b = random_real(n, 6);
    double check = 0.0;
    const double sec = best_seconds(3, [&] {
      const auto c = la::gemm(a, b);
      check = c(0, 0);
    });
    expect(std::isfinite(check), "gemm result is finite");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"gemm\","
        "\"n\":%zu,\"seconds\":%.6f}\n",
        n, sec);
  }

  // VF sigma least squares over 200 samples, (rows, cols, ports): the
  // per-output block of a 12-pole fit (one "port": 12 basis columns and
  // the d column, then 12 sigma columns and H_i), then the dense
  // systems of 2-, 3- and 4-port fits.
  for (const auto& [m, n, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{400, 26, 1},
        {800, 26, 2},
        {1200, 45, 3},
        {1600, 64, 4}}) {
    util::Rng rng(7);
    const la::RealMatrix a = test::sigma_pattern_matrix(m, n, p, rng);
    la::RealVector b(m);
    for (auto& v : b) v = rng.normal();
    la::RealVector x, x_ref;
    const double sec = best_seconds(5, [&] { x = la::least_squares(a, b); });
    const double ref_sec =
        best_seconds(5, [&] { x_ref = test::reference_qr(a).solve(b); });
    expect(x.size() == n && x_ref.size() == n &&
               std::memcmp(x.data(), x_ref.data(), n * sizeof(double)) == 0,
           "least_squares is bit-identical to the reference QR");
    std::printf(
        "BENCH {\"bench\":\"la_kernels\",\"kernel\":\"least_squares\","
        "\"rows\":%zu,\"cols\":%zu,\"seconds\":%.6f,"
        "\"reference_seconds\":%.6f,\"speedup\":%.3f}\n",
        m, n, sec, ref_sec, ref_sec / sec);
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d kernel expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("la kernel smokes hold\n");
  return 0;
}
