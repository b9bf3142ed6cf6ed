#pragma once
// Blocked, SIMD-friendly compute kernels of the solve path: blocked
// complex row reductions (the CGS2 orthogonalization in core::arnoldi)
// and split real/imag-plane products of a real matrix with a complex
// vector (the C / C^T / D / D^T products of the Hamiltonian operators).
//
// There is one kernel path.  The transforms in this file and in the
// operators that use them reorder floating-point reductions (multiple
// accumulators, paired rows, split planes, frozen resolvent tables,
// fused multi-RHS solves), so results differ from straight-line loops
// at rounding level; tests/reference_kernels.hpp keeps those loops as
// the test oracle.  Order-preserving transforms (la/blas.hpp blocked
// products, la::hessenberg_eig) are bit-identical to the loops they
// replaced.  Either way the results are deterministic: bit-identical
// across runs and thread counts.
//
// The kernels here are deliberately free-standing (raw pointers +
// strides) so the operators can point them at matrix rows, locked
// Ritz vectors, and scratch planes without adapter copies.

#include <cstddef>

#include "phes/la/types.hpp"

namespace phes::la {

namespace kernels {

// ---- blocked complex row kernels (tuned Gram-Schmidt) -----------------
//
// `rows` is the first row of a row-major pack with leading dimension
// `stride`; row j is rows + j * stride.  The *_ptrs variants take an
// array of row pointers instead (locked Ritz vectors live in separate
// allocations).

/// proj[j] = sum_i conj(row_j[i]) * w[i]  for j in [0, count).
/// Blocked over rows so each load of w feeds several dot products, with
/// split re/im accumulators to break the serial addition chain.
void dotc_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj);

/// Same reduction over an array of row pointers.
void dotc_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj);

/// w -= sum_j coeffs[j] * row_j  for j in [0, count), blocked so each
/// store of w absorbs several rank-1 updates.
void axpy_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim);

/// Same update over an array of row pointers.
void axpy_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim);

// ---- split-plane real-matrix kernels ----------------------------------
//
// A real m x n matrix times a complex vector, carried as two real
// planes (re, im).  The planes keep the inner loops contiguous over
// doubles — the interleaved-complex layout defeats vectorization of
// the real-matrix products in apply_c / apply_ct.

/// yre/yim = A xre/xim (A row-major m x n; y has length m).
void gemv_planes(const double* a, std::size_t m, std::size_t n,
                 const double* xre, const double* xim, double* yre,
                 double* yim);

/// yre/yim = A^T xre/xim (y has length n).  Rows are blocked so each
/// pass over y absorbs several rows' updates.
void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim);

/// Split an interleaved complex span into planes.
void split_planes(const Complex* x, std::size_t n, double* re, double* im);

/// Merge planes back into an interleaved complex span.
void merge_planes(const double* re, const double* im, std::size_t n,
                  Complex* x);

}  // namespace kernels

}  // namespace phes::la
