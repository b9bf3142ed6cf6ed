#include "phes/la/kernels.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "phes/la/blas.hpp"

namespace phes::la {

namespace kernels {

namespace {

// Two doubles in one 16-byte vector (one SSE2 register on x86-64).
// Each lane is one of the scalar accumulators the loops below were
// written with: lane l of a row's vector is the accumulator of index
// l, so vector arithmetic runs the same operations in the same order,
// and the final lane sums are spelled out in the scalar order.
typedef double v2d __attribute__((vector_size(16)));

// Unaligned load of p[0..1]; rows start at any double offset.
inline v2d load2(const double* p) {
  v2d v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// One conj(v)*w dot product of a plane row with four independent re/im
// accumulator pairs, one per i mod 4 (lanes of the 01 and 23 vectors):
// the serial add chain is the latency bottleneck of the straight-line
// Gram-Schmidt, and four chains keep the FP pipes busy.
inline Complex dotc_one(const double* v, const double* w, std::size_t dim) {
  const double* vr = v;
  const double* vi = v + dim;
  const double* wr = w;
  const double* wi = w + dim;
  v2d re01 = {0.0, 0.0}, re23 = {0.0, 0.0};
  v2d im01 = {0.0, 0.0}, im23 = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const v2d a01 = load2(vr + i), b01 = load2(vi + i);
    const v2d c01 = load2(wr + i), d01 = load2(wi + i);
    const v2d a23 = load2(vr + i + 2), b23 = load2(vi + i + 2);
    const v2d c23 = load2(wr + i + 2), d23 = load2(wi + i + 2);
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
// of its re and im vectors.
inline void dotc_two(const double* v0, const double* v1, const double* w,
                     std::size_t dim, Complex* proj) {
  const double* v0r = v0;
  const double* v0i = v0 + dim;
  const double* v1r = v1;
  const double* v1i = v1 + dim;
  const double* wr = w;
  const double* wi = w + dim;
  v2d re0 = {0.0, 0.0}, im0 = {0.0, 0.0};
  v2d re1 = {0.0, 0.0}, im1 = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    const v2d a = load2(wr + i), b = load2(wi + i);
    const v2d x0 = load2(v0r + i), y0 = load2(v0i + i);
    const v2d x1 = load2(v1r + i), y1 = load2(v1i + i);
    re0 += x0 * a + y0 * b;
    im0 += x0 * b - y0 * a;
    re1 += x1 * a + y1 * b;
    im1 += x1 * b - y1 * a;
  }
  for (; i < dim; ++i) {
    const double a = wr[i], b = wi[i];
    re0[0] += v0r[i] * a + v0i[i] * b;
    im0[0] += v0r[i] * b - v0i[i] * a;
    re1[0] += v1r[i] * a + v1i[i] * b;
    im1[0] += v1r[i] * b - v1i[i] * a;
  }
  proj[0] = {re0[0] + re0[1], im0[0] + im0[1]};
  proj[1] = {re1[0] + re1[1], im1[0] + im1[1]};
}

// w -= c0 * v0 + c1 * v1 in one pass over w.
inline void axpy_two(const double* v0, Complex c0, const double* v1,
                     Complex c1, double* w, std::size_t dim) {
  const double c0r = c0.real(), c0i = c0.imag();
  const double c1r = c1.real(), c1i = c1.imag();
  const double* v0r = v0;
  const double* v0i = v0 + dim;
  const double* v1r = v1;
  const double* v1i = v1 + dim;
  double* wr = w;
  double* wi = w + dim;
  for (std::size_t i = 0; i < dim; ++i) {
    const double a0 = v0r[i], b0 = v0i[i], a1 = v1r[i], b1 = v1i[i];
    const double re = wr[i] - (c0r * a0 - c0i * b0) - (c1r * a1 - c1i * b1);
    const double im = wi[i] - (c0r * b0 + c0i * a0) - (c1r * b1 + c1i * a1);
    wr[i] = re;
    wi[i] = im;
  }
}

inline void axpy_one(const double* v, Complex c, double* w,
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
// accumulator for even and one for odd j (lanes 0 and 1 of its re and
// im vectors), the odd-n tail going to the even one.
template <std::size_t R>
inline void gemv_rows(const double* a, std::size_t n, const double* xre,
                      const double* xim, double* yre, double* yim) {
  v2d re[R], im[R];
  for (std::size_t r = 0; r < R; ++r) {
    re[r] = v2d{0.0, 0.0};
    im[r] = v2d{0.0, 0.0};
  }
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const v2d xr = load2(xre + j), xi = load2(xim + j);
    for (std::size_t r = 0; r < R; ++r) {
      const v2d aj = load2(a + r * n + j);
      re[r] += aj * xr;
      im[r] += aj * xi;
    }
  }
  for (; j < n; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      re[r][0] += a[r * n + j] * xre[j];
      im[r][0] += a[r * n + j] * xim[j];
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    yre[r] = re[r][0] + re[r][1];
    yim[r] = im[r][0] + im[r][1];
  }
}

}  // namespace

void dotc_rows(const double* rows, std::size_t stride, std::size_t count,
               const double* w, std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two(rows + j * stride, rows + (j + 1) * stride, w, dim, proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows + j * stride, w, dim);
}

void axpy_rows(const double* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, double* w, std::size_t dim) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    axpy_two(rows + j * stride, coeffs[j], rows + (j + 1) * stride,
             coeffs[j + 1], w, dim);
  }
  if (j < count) axpy_one(rows + j * stride, coeffs[j], w, dim);
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

void gemv_planes(const double* a, std::size_t m, std::size_t n,
                 const double* xre, const double* xim, double* yre,
                 double* yim) {
  // Four rows per pass over x, then the remaining rows one at a time.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    gemv_rows<4>(a + i * n, n, xre, xim, yre + i, yim + i);
  }
  for (; i < m; ++i) {
    gemv_rows<1>(a + i * n, n, xre, xim, yre + i, yim + i);
  }
}

void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim) {
  for (std::size_t j = 0; j < n; ++j) {
    yre[j] = 0.0;
    yim[j] = 0.0;
  }
  // Four rows per pass over y as (y + (t0 + t1)) + (t2 + t3): the sums
  // of two two-row passes, in their order, with half the loads and
  // stores of y.
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
    for (std::size_t j = 0; j < n; ++j) {
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
