#pragma once
// Blocked, SIMD-friendly compute kernels of the solve path: blocked
// complex row reductions on split real/imag planes (the CGS2
// orthogonalization in core::arnoldi) and split-plane products of a
// real matrix with a complex vector (the C / C^T / D / D^T products of
// the Hamiltonian operators).
//
// There is one kernel path.  The transforms in this file and in the
// operators that use them reorder floating-point reductions (multiple
// accumulators, paired rows, split planes, frozen resolvent tables,
// fused multi-RHS solves), so results differ from straight-line loops
// at rounding level; tests/reference_kernels.hpp keeps those loops as
// the test oracle.  Order-preserving transforms (la/blas.hpp blocked
// products, la::hessenberg_eig, the plane-row kernels below against
// the interleaved kernels they replaced, the vector accumulators at
// both lane widths and the four-row gemv passes below against their
// scalar loops) are bit-identical to the loops they replaced.  Either
// way the results are deterministic: bit-identical across runs and
// thread counts.
//
// The kernels here are deliberately free-standing (raw pointers +
// strides) so the operators can point them at matrix rows, packs of
// plane rows and scratch planes without adapter copies.

#include <cstddef>

#include "phes/la/types.hpp"

namespace phes::la {

namespace kernels {

// ---- plane-row complex kernels (blocked Gram-Schmidt) -----------------
//
// A complex vector x of length `dim` is a PLANE ROW: 2 * dim doubles,
// re(x) in [0, dim) followed by im(x) in [dim, 2 * dim).  The planes
// keep every inner loop contiguous over doubles, so the axpy sweeps
// vectorize without the unpck shuffles an interleaved std::complex
// layout needs.  `rows` is the first row of a pack with leading
// dimension `stride` doubles; row j is rows + j * stride.  Every
// Krylov vector sum runs through the pair below: the CGS2 passes over
// the Arnoldi basis and over the locked set (two packs of the same
// layout), Ritz-vector formation and the locking update.
//
// The dot kernel takes rows in pairs sharing one pass over w; a pair
// keeps one accumulator per row for even and one for odd i, a lone
// last row one accumulator per i mod 4 summed as (r0 + r1) + (r2 + r3),
// and tail elements go to accumulator 0.
//
// Lane layout.  The four row kernels (dotc_rows, axpy_rows,
// gemv_planes, gemv_t_planes) each have one body, templated on the
// lane width L of a GCC/Clang vector of doubles, and each lane is
// exactly one of the scalar loops' accumulators or elements:
//
//   - dotc_rows and gemv_planes: at L = 2 a row's even and odd
//     accumulators are the two lanes of one vector (one per row); at
//     L = 4 one vector holds a row pair's even and odd accumulators
//     (row r of the pair in lanes 2r and 2r + 1), and the w (or x)
//     pair is broadcast into both halves;
//   - axpy_rows and gemv_t_planes: one vector holds L consecutive
//     elements of w (or y), each updated in the scalar per-element
//     order;
//   - the lone-row paths (dotc_rows' i mod 4 row, axpy_rows' last
//     row, gemv_planes' rows past the last four-row block) and the
//     scalar tails are the same at both widths.
//
// So each vector operation is the scalar operations on its lanes, in
// the same order, and both widths give the results of the scalar
// loops bit for bit (tests/reference_kernels.hpp keeps them as the
// oracle).  Loads go through memcpy and are unaligned, because rows, w
// and matrix rows start at any double offset.  No FMA: a fused
// multiply-add rounds once where the scalar loops round twice, so
// neither build enables it and nothing is contracted.  Written as
// scalars, GCC's SLP vectorizer cannot build the pair kernel's
// reduction groups and falls back to lane gathers and transposes.
//
// Selection.  The body is built twice: at L = 2 for the baseline
// target (one SSE2 register on x86-64) and, on x86, at L = 4 under
// target("avx2").  The entry points run the AVX2 build when the CPU
// has AVX2 (__builtin_cpu_supports, asked once, at the first call) and
// the baseline build otherwise; there is no flag, option or
// environment variable.  row_kernels() hands tests and benches either
// build.  Explicit vectors and ISA selection stay in
// src/la/kernels.cpp (lint check simd-confined).

/// proj[j] = sum_i conj(row_j[i]) * w[i]  for j in [0, count).
void dotc_rows(const double* rows, std::size_t stride, std::size_t count,
               const double* w, std::size_t dim, Complex* proj);

/// w -= sum_j coeffs[j] * row_j  for j in [0, count).  Rows go four
/// per pass over w, each element updated as (((w - t0) - t1) - t2) - t3
/// (two row pairs' w - t0 - t1, in their order), so each store of w
/// absorbs four rank-1 updates; then a pair and a lone row.
void axpy_rows(const double* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, double* w, std::size_t dim);

/// Euclidean norm of a plane row, bit-identical to la::nrm2 of the
/// interleaved vector (same sum order, same scaled rescue pass).
[[nodiscard]] double nrm2_plane(const double* x, std::size_t dim) noexcept;

// ---- split-plane real-matrix kernels ----------------------------------
//
// A real m x n matrix times a complex vector, carried as two real
// planes (re, im).  The planes keep the inner loops contiguous over
// doubles — the interleaved-complex layout defeats vectorization of
// the real-matrix products in apply_c / apply_ct.

/// yre/yim = A xre/xim (A row-major m x n; y has length m).  Each row
/// keeps one accumulator for even and one for odd j (two lanes of a
/// vector, as above), the odd-n tail going to the even one.  Rows go
/// four per pass over x, then the remaining rows one at a time; each
/// row's sums are those of a pass of its own.
void gemv_planes(const double* a, std::size_t m, std::size_t n,
                 const double* xre, const double* xim, double* yre,
                 double* yim);

/// yre/yim = A^T xre/xim (y has length n).  Rows go four per pass over
/// y, each element updated as (y + (t0 + t1)) + (t2 + t3) — the order
/// of two passes of two rows, y + (t0 + t1) — then a two-row pass and
/// a lone row (y + t0) for the remainder.
void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim);

// ---- the builds of the four row kernels -------------------------------

enum class Isa {
  kBaseline,  ///< two lanes, the compiler's baseline target
  kAvx2,      ///< four lanes, AVX2 without FMA (x86 only)
};

/// One build of the four row kernels above; same signatures, same bits.
struct RowKernels {
  Isa isa;
  const char* name;  ///< "baseline" or "avx2"
  void (*dotc_rows)(const double* rows, std::size_t stride,
                    std::size_t count, const double* w, std::size_t dim,
                    Complex* proj);
  void (*axpy_rows)(const double* rows, std::size_t stride,
                    std::size_t count, const Complex* coeffs, double* w,
                    std::size_t dim);
  void (*gemv_planes)(const double* a, std::size_t m, std::size_t n,
                      const double* xre, const double* xim, double* yre,
                      double* yim);
  void (*gemv_t_planes)(const double* a, std::size_t m, std::size_t n,
                        const double* xre, const double* xim, double* yre,
                        double* yim);
};

/// The build for `isa`, or nullptr when this CPU cannot run it.
[[nodiscard]] const RowKernels* row_kernels(Isa isa) noexcept;

/// The build the entry points run: AVX2 when the CPU has it, else the
/// baseline.  Picked once.
[[nodiscard]] const RowKernels& active_row_kernels() noexcept;

/// Split an interleaved complex span into planes.
void split_planes(const Complex* x, std::size_t n, double* re, double* im);

/// Merge planes back into an interleaved complex span.
void merge_planes(const double* re, const double* im, std::size_t n,
                  Complex* x);

}  // namespace kernels

}  // namespace phes::la
