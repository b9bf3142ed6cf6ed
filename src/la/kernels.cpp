#include "phes/la/kernels.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "phes/la/blas.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define PHES_KERNELS_X86 1
#else
#define PHES_KERNELS_X86 0
#endif

namespace phes::la {

namespace kernels {

namespace {

// L doubles in one vector: two in one 16-byte SSE2 register, four in
// one 32-byte AVX register.  Each lane is one of the scalar
// accumulators (or elements) the loops below were written with, so
// vector arithmetic runs the same operations in the same order, and
// the final lane sums are spelled out in the scalar order.
template <std::size_t L>
struct Lanes;
template <>
struct Lanes<2> {
  typedef double V __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  typedef double V __attribute__((vector_size(32)));
};
using v2d = Lanes<2>::V;

// Every helper below is forced inline: the 4-lane bodies are built
// only inside the AVX2 entry points further down, and an out-of-line
// copy of one would be a baseline-target function passing 32-byte
// vectors through memory.  For the same reason no helper takes or
// returns a vector by value.
#define PHES_KERNEL_INLINE [[gnu::always_inline]] inline

// Unaligned load / store of p[0..L-1]; rows start at any double offset.
template <typename V>
PHES_KERNEL_INLINE void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <typename V>
PHES_KERNEL_INLINE void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

// Lanes 2k and 2k+1 of `v` = rows[k][i], rows[k][i + 1]: an even/odd
// pair from each of L/2 rows.  Four lanes are two 16-byte loads joined
// in registers (building the halves through memory would stall on
// store forwarding).
template <typename V>
PHES_KERNEL_INLINE void load_pairs(V& v, const double* const* rows,
                                   std::size_t i) {
  if constexpr (sizeof(V) == sizeof(v2d)) {
    load(v, rows[0] + i);
  } else {
    v2d lo, hi;
    load(lo, rows[0] + i);
    load(hi, rows[1] + i);
    v = __builtin_shufflevector(lo, hi, 0, 1, 2, 3);
  }
}

// Lanes 2k and 2k+1 of `v` = p[0], p[1] for every k: one even/odd
// pair broadcast to every row of a load_pairs vector (vbroadcastf128
// at four lanes).
template <typename V>
PHES_KERNEL_INLINE void broadcast_pair(V& v, const double* p) {
  if constexpr (sizeof(V) == sizeof(v2d)) {
    load(v, p);
  } else {
    v = V{p[0], p[1], p[0], p[1]};
  }
}

// One conj(v)*w dot product of a plane row with four independent re/im
// accumulator pairs, one per i mod 4 (lanes of the 01 and 23 vectors):
// the serial add chain is the latency bottleneck of the straight-line
// Gram-Schmidt, and four chains keep the FP pipes busy.  Two lanes at
// either width: only a lone last row takes this path.
PHES_KERNEL_INLINE Complex dotc_one(const double* v, const double* w,
                                    std::size_t dim) {
  const double* vr = v;
  const double* vi = v + dim;
  const double* wr = w;
  const double* wi = w + dim;
  v2d re01 = {0.0, 0.0}, re23 = {0.0, 0.0};
  v2d im01 = {0.0, 0.0}, im23 = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    v2d a01, b01, c01, d01, a23, b23, c23, d23;
    load(a01, vr + i);
    load(b01, vi + i);
    load(c01, wr + i);
    load(d01, wi + i);
    load(a23, vr + i + 2);
    load(b23, vi + i + 2);
    load(c23, wr + i + 2);
    load(d23, wi + i + 2);
    re01 += a01 * c01 + b01 * d01;
    im01 += a01 * d01 - b01 * c01;
    re23 += a23 * c23 + b23 * d23;
    im23 += a23 * d23 - b23 * c23;
  }
  for (; i < dim; ++i) {
    re01[0] += vr[i] * wr[i] + vi[i] * wi[i];
    im01[0] += vr[i] * wi[i] - vi[i] * wr[i];
  }
  return {(re01[0] + re01[1]) + (re23[0] + re23[1]),
          (im01[0] + im01[1]) + (im23[0] + im23[1])};
}

// proj[0..1] for a pair of plane rows sharing one pass over w.  Each
// row keeps one accumulator for even and one for odd i: lanes 0 and 1
// of its re and im vectors at two lanes; at four, one vector holds
// both rows (row r in lanes 2r and 2r+1) and w's pair is broadcast.
template <std::size_t L>
PHES_KERNEL_INLINE void dotc_two(const double* v0, const double* v1,
                                 const double* w, std::size_t dim,
                                 Complex* proj) {
  using V = typename Lanes<L>::V;
  constexpr std::size_t kRows = L / 2;  // rows per vector
  constexpr std::size_t kVecs = 2 / kRows;
  const double* const vr[2] = {v0, v1};
  const double* const vi[2] = {v0 + dim, v1 + dim};
  const double* wr = w;
  const double* wi = w + dim;
  V re[kVecs], im[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) {
    re[k] = V{};
    im[k] = V{};
  }
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    V a, b;
    broadcast_pair(a, wr + i);
    broadcast_pair(b, wi + i);
    for (std::size_t k = 0; k < kVecs; ++k) {
      V x, y;
      load_pairs(x, vr + k * kRows, i);
      load_pairs(y, vi + k * kRows, i);
      re[k] += x * a + y * b;
      im[k] += x * b - y * a;
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    V& rv = re[r / kRows];
    V& iv = im[r / kRows];
    const std::size_t lane = 2 * (r % kRows);
    for (std::size_t t = i; t < dim; ++t) {
      const double a = wr[t], b = wi[t];
      rv[lane] += vr[r][t] * a + vi[r][t] * b;
      iv[lane] += vr[r][t] * b - vi[r][t] * a;
    }
    proj[r] = {rv[lane] + rv[lane + 1], iv[lane] + iv[lane + 1]};
  }
}

// w -= sum_r coeffs[r] * row_r for the R rows from `rows` in one pass
// over w; L consecutive elements per vector, each updated as
// ((w - t0) - t1) - ..., the order of R / 2 passes of a row pair.
template <std::size_t L, std::size_t R>
PHES_KERNEL_INLINE void axpy_block(const double* rows, std::size_t stride,
                                   const Complex* coeffs, double* w,
                                   std::size_t dim) {
  using V = typename Lanes<L>::V;
  const double* vr[R];
  const double* vi[R];
  double cr[R], ci[R];
  for (std::size_t r = 0; r < R; ++r) {
    vr[r] = rows + r * stride;
    vi[r] = vr[r] + dim;
    cr[r] = coeffs[r].real();
    ci[r] = coeffs[r].imag();
  }
  double* wr = w;
  double* wi = w + dim;
  std::size_t i = 0;
  for (; i + L <= dim; i += L) {
    V re, im;
    load(re, wr + i);
    load(im, wi + i);
    for (std::size_t r = 0; r < R; ++r) {
      V a, b;
      load(a, vr[r] + i);
      load(b, vi[r] + i);
      re = re - (cr[r] * a - ci[r] * b);
      im = im - (cr[r] * b + ci[r] * a);
    }
    store(wr + i, re);
    store(wi + i, im);
  }
  for (; i < dim; ++i) {
    double re = wr[i], im = wi[i];
    for (std::size_t r = 0; r < R; ++r) {
      const double a = vr[r][i], b = vi[r][i];
      re = re - (cr[r] * a - ci[r] * b);
      im = im - (cr[r] * b + ci[r] * a);
    }
    wr[i] = re;
    wi[i] = im;
  }
}

PHES_KERNEL_INLINE void axpy_one(const double* v, Complex c, double* w,
                                 std::size_t dim) {
  const double cr = c.real(), ci = c.imag();
  const double* vr = v;
  const double* vi = v + dim;
  double* wr = w;
  double* wi = w + dim;
  for (std::size_t i = 0; i < dim; ++i) {
    const double a = vr[i], b = vi[i];
    const double re = wr[i] - (cr * a - ci * b);
    const double im = wi[i] - (cr * b + ci * a);
    wr[i] = re;
    wi[i] = im;
  }
}

// y[r] = row_r . x on planes for the R consecutive rows of `a`
// (length n each), sharing one pass over x.  Each row keeps one
// accumulator for even and one for odd j, the odd-n tail going to the
// even one: lanes 0 and 1 of its re and im vectors at two lanes; at
// four, one vector holds a row pair (row r in lanes 2r and 2r+1) and
// x's pair is broadcast.
template <std::size_t L, std::size_t R>
PHES_KERNEL_INLINE void gemv_rows(const double* a, std::size_t n,
                                  const double* xre, const double* xim,
                                  double* yre, double* yim) {
  using V = typename Lanes<L>::V;
  constexpr std::size_t kRows = L / 2;  // rows per vector
  static_assert(R % kRows == 0);
  constexpr std::size_t kVecs = R / kRows;
  const double* rows[R];
  for (std::size_t r = 0; r < R; ++r) rows[r] = a + r * n;
  V re[kVecs], im[kVecs];
  for (std::size_t k = 0; k < kVecs; ++k) {
    re[k] = V{};
    im[k] = V{};
  }
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    V xr, xi;
    broadcast_pair(xr, xre + j);
    broadcast_pair(xi, xim + j);
    for (std::size_t k = 0; k < kVecs; ++k) {
      V aj;
      load_pairs(aj, rows + k * kRows, j);
      re[k] += aj * xr;
      im[k] += aj * xi;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    V& rv = re[r / kRows];
    V& iv = im[r / kRows];
    const std::size_t lane = 2 * (r % kRows);
    for (std::size_t t = j; t < n; ++t) {
      rv[lane] += rows[r][t] * xre[t];
      iv[lane] += rows[r][t] * xim[t];
    }
    yre[r] = rv[lane] + rv[lane + 1];
    yim[r] = iv[lane] + iv[lane + 1];
  }
}

// ---- the four row kernels, one body each, templated on lane width ----

template <std::size_t L>
PHES_KERNEL_INLINE void dotc_rows_body(const double* rows, std::size_t stride,
                                       std::size_t count, const double* w,
                                       std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two<L>(rows + j * stride, rows + (j + 1) * stride, w, dim,
                proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows + j * stride, w, dim);
}

template <std::size_t L>
PHES_KERNEL_INLINE void axpy_rows_body(const double* rows, std::size_t stride,
                                       std::size_t count,
                                       const Complex* coeffs, double* w,
                                       std::size_t dim) {
  // Four rows per pass over w (two pairs' updates in their order, with
  // half the loads and stores of w), then a pair, then a lone row.
  std::size_t j = 0;
  for (; j + 4 <= count; j += 4) {
    axpy_block<L, 4>(rows + j * stride, stride, coeffs + j, w, dim);
  }
  if (j + 2 <= count) {
    axpy_block<L, 2>(rows + j * stride, stride, coeffs + j, w, dim);
    j += 2;
  }
  if (j < count) axpy_one(rows + j * stride, coeffs[j], w, dim);
}

template <std::size_t L>
PHES_KERNEL_INLINE void gemv_planes_body(const double* a, std::size_t m,
                                         std::size_t n, const double* xre,
                                         const double* xim, double* yre,
                                         double* yim) {
  // Four rows per pass over x, then the remaining rows one at a time
  // (two lanes: one row's even/odd pair).
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    gemv_rows<L, 4>(a + i * n, n, xre, xim, yre + i, yim + i);
  }
  for (; i < m; ++i) {
    gemv_rows<2, 1>(a + i * n, n, xre, xim, yre + i, yim + i);
  }
}

template <std::size_t L>
PHES_KERNEL_INLINE void gemv_t_planes_body(const double* a, std::size_t m,
                                           std::size_t n, const double* xre,
                                           const double* xim, double* yre,
                                           double* yim) {
  using V = typename Lanes<L>::V;
  for (std::size_t j = 0; j < n; ++j) {
    yre[j] = 0.0;
    yim[j] = 0.0;
  }
  // Four rows per pass over y as (y + (t0 + t1)) + (t2 + t3): the sums
  // of two two-row passes, in their order, with half the loads and
  // stores of y.  L consecutive elements of y per vector.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a + i * n;
    const double* r1 = r0 + n;
    const double* r2 = r1 + n;
    const double* r3 = r2 + n;
    const double xr0 = xre[i], xi0 = xim[i];
    const double xr1 = xre[i + 1], xi1 = xim[i + 1];
    const double xr2 = xre[i + 2], xi2 = xim[i + 2];
    const double xr3 = xre[i + 3], xi3 = xim[i + 3];
    std::size_t j = 0;
    for (; j + L <= n; j += L) {
      V a0, a1, a2, a3, yr, yi;
      load(a0, r0 + j);
      load(a1, r1 + j);
      load(a2, r2 + j);
      load(a3, r3 + j);
      load(yr, yre + j);
      load(yi, yim + j);
      store(yre + j, (yr + (a0 * xr0 + a1 * xr1)) + (a2 * xr2 + a3 * xr3));
      store(yim + j, (yi + (a0 * xi0 + a1 * xi1)) + (a2 * xi2 + a3 * xi3));
    }
    for (; j < n; ++j) {
      yre[j] = (yre[j] + (r0[j] * xr0 + r1[j] * xr1)) +
               (r2[j] * xr2 + r3[j] * xr3);
      yim[j] = (yim[j] + (r0[j] * xi0 + r1[j] * xi1)) +
               (r2[j] * xi2 + r3[j] * xi3);
    }
  }
  if (i + 2 <= m) {
    const double* r0 = a + i * n;
    const double* r1 = r0 + n;
    const double xr0 = xre[i], xi0 = xim[i];
    const double xr1 = xre[i + 1], xi1 = xim[i + 1];
    for (std::size_t j = 0; j < n; ++j) {
      yre[j] += r0[j] * xr0 + r1[j] * xr1;
      yim[j] += r0[j] * xi0 + r1[j] * xi1;
    }
    i += 2;
  }
  if (i < m) {
    const double* r0 = a + i * n;
    const double xr0 = xre[i], xi0 = xim[i];
    for (std::size_t j = 0; j < n; ++j) {
      yre[j] += r0[j] * xr0;
      yim[j] += r0[j] * xi0;
    }
  }
}

// ---- the two builds ---------------------------------------------------
//
// Two lanes for the baseline target; four under target("avx2"), with
// no "fma": a fused multiply-add would round once where the scalar
// loops round twice.

void dotc_rows_2(const double* rows, std::size_t stride, std::size_t count,
                 const double* w, std::size_t dim, Complex* proj) {
  dotc_rows_body<2>(rows, stride, count, w, dim, proj);
}
void axpy_rows_2(const double* rows, std::size_t stride, std::size_t count,
                 const Complex* coeffs, double* w, std::size_t dim) {
  axpy_rows_body<2>(rows, stride, count, coeffs, w, dim);
}
void gemv_planes_2(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim) {
  gemv_planes_body<2>(a, m, n, xre, xim, yre, yim);
}
void gemv_t_planes_2(const double* a, std::size_t m, std::size_t n,
                     const double* xre, const double* xim, double* yre,
                     double* yim) {
  gemv_t_planes_body<2>(a, m, n, xre, xim, yre, yim);
}

constexpr RowKernels kBaseline{Isa::kBaseline, "baseline", dotc_rows_2,
                               axpy_rows_2, gemv_planes_2, gemv_t_planes_2};

#if PHES_KERNELS_X86
[[gnu::target("avx2")]] void dotc_rows_4(const double* rows,
                                         std::size_t stride,
                                         std::size_t count, const double* w,
                                         std::size_t dim, Complex* proj) {
  dotc_rows_body<4>(rows, stride, count, w, dim, proj);
}
[[gnu::target("avx2")]] void axpy_rows_4(const double* rows,
                                         std::size_t stride,
                                         std::size_t count,
                                         const Complex* coeffs, double* w,
                                         std::size_t dim) {
  axpy_rows_body<4>(rows, stride, count, coeffs, w, dim);
}
[[gnu::target("avx2")]] void gemv_planes_4(const double* a, std::size_t m,
                                           std::size_t n, const double* xre,
                                           const double* xim, double* yre,
                                           double* yim) {
  gemv_planes_body<4>(a, m, n, xre, xim, yre, yim);
}
[[gnu::target("avx2")]] void gemv_t_planes_4(const double* a, std::size_t m,
                                             std::size_t n,
                                             const double* xre,
                                             const double* xim, double* yre,
                                             double* yim) {
  gemv_t_planes_body<4>(a, m, n, xre, xim, yre, yim);
}

constexpr RowKernels kAvx2{Isa::kAvx2, "avx2", dotc_rows_4, axpy_rows_4,
                           gemv_planes_4, gemv_t_planes_4};
#endif

bool cpu_has_avx2() noexcept {
#if PHES_KERNELS_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const RowKernels* row_kernels(Isa isa) noexcept {
  switch (isa) {
    case Isa::kBaseline:
      return &kBaseline;
    case Isa::kAvx2:
#if PHES_KERNELS_X86
      if (cpu_has_avx2()) return &kAvx2;
#endif
      return nullptr;
  }
  return nullptr;
}

const RowKernels& active_row_kernels() noexcept {
  static const RowKernels* const active = [] {
    const RowKernels* avx2 = row_kernels(Isa::kAvx2);
    return avx2 != nullptr ? avx2 : &kBaseline;
  }();
  return *active;
}

void dotc_rows(const double* rows, std::size_t stride, std::size_t count,
               const double* w, std::size_t dim, Complex* proj) {
  active_row_kernels().dotc_rows(rows, stride, count, w, dim, proj);
}

void axpy_rows(const double* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, double* w, std::size_t dim) {
  active_row_kernels().axpy_rows(rows, stride, count, coeffs, w, dim);
}

void gemv_planes(const double* a, std::size_t m, std::size_t n,
                 const double* xre, const double* xim, double* yre,
                 double* yim) {
  active_row_kernels().gemv_planes(a, m, n, xre, xim, yre, yim);
}

void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim) {
  active_row_kernels().gemv_t_planes(a, m, n, xre, xim, yre, yim);
}

double nrm2_plane(const double* x, std::size_t dim) noexcept {
  const double* re = x;
  const double* im = x + dim;
  // la::nrm2's fast path: std::norm(x_i) = re^2 + im^2, summed in
  // ascending i.
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) acc += re[i] * re[i] + im[i] * im[i];
  if (acc >= std::numeric_limits<double>::min() && std::isfinite(acc)) {
    return std::sqrt(acc);
  }
  // Its rescue pass: real part, then imaginary part, in ascending i.
  double scale = 0.0, ssq = 1.0;
  for (std::size_t i = 0; i < dim; ++i) {
    detail::scaled_ssq(re[i], scale, ssq);
    detail::scaled_ssq(im[i], scale, ssq);
  }
  return scale * std::sqrt(ssq);
}

void split_planes(const Complex* x, std::size_t n, double* re, double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

void merge_planes(const double* re, const double* im, std::size_t n,
                  Complex* x) {
  for (std::size_t i = 0; i < n; ++i) x[i] = {re[i], im[i]};
}

}  // namespace kernels

}  // namespace phes::la
