#include "phes/la/kernels.hpp"

#include <cmath>
#include <limits>

#include "phes/la/blas.hpp"

namespace phes::la {

namespace kernels {

namespace {

// One conj(v)*w dot product of a plane row with four independent re/im
// accumulator pairs, one per i mod 4: the serial add chain is the
// latency bottleneck of the straight-line Gram-Schmidt, and four
// chains keep the FP pipes busy.
inline Complex dotc_one(const double* v, const double* w, std::size_t dim) {
  const double* vr = v;
  const double* vi = v + dim;
  const double* wr = w;
  const double* wi = w + dim;
  double re[4] = {0.0, 0.0, 0.0, 0.0};
  double im[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    for (std::size_t l = 0; l < 4; ++l) {
      re[l] += vr[i + l] * wr[i + l] + vi[i + l] * wi[i + l];
      im[l] += vr[i + l] * wi[i + l] - vi[i + l] * wr[i + l];
    }
  }
  for (; i < dim; ++i) {
    re[0] += vr[i] * wr[i] + vi[i] * wi[i];
    im[0] += vr[i] * wi[i] - vi[i] * wr[i];
  }
  return {(re[0] + re[1]) + (re[2] + re[3]),
          (im[0] + im[1]) + (im[2] + im[3])};
}

// proj[0..1] for a pair of plane rows sharing one pass over w.  Each
// row keeps one accumulator for even and one for odd i.
inline void dotc_two(const double* v0, const double* v1, const double* w,
                     std::size_t dim, Complex* proj) {
  const double* v0r = v0;
  const double* v0i = v0 + dim;
  const double* v1r = v1;
  const double* v1i = v1 + dim;
  const double* wr = w;
  const double* wi = w + dim;
  double re0[2] = {0.0, 0.0}, im0[2] = {0.0, 0.0};
  double re1[2] = {0.0, 0.0}, im1[2] = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    for (std::size_t l = 0; l < 2; ++l) {
      const double a = wr[i + l], b = wi[i + l];
      re0[l] += v0r[i + l] * a + v0i[i + l] * b;
      im0[l] += v0r[i + l] * b - v0i[i + l] * a;
      re1[l] += v1r[i + l] * a + v1i[i + l] * b;
      im1[l] += v1r[i + l] * b - v1i[i + l] * a;
    }
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

}  // namespace

void dotc_rows(const double* rows, std::size_t stride, std::size_t count,
               const double* w, std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two(rows + j * stride, rows + (j + 1) * stride, w, dim, proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows + j * stride, w, dim);
}

void dotc_ptrs(const double* const* rows, std::size_t count,
               const double* w, std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two(rows[j], rows[j + 1], w, dim, proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows[j], w, dim);
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

void axpy_ptrs(const double* const* rows, std::size_t count,
               const Complex* coeffs, double* w, std::size_t dim) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    axpy_two(rows[j], coeffs[j], rows[j + 1], coeffs[j + 1], w, dim);
  }
  if (j < count) axpy_one(rows[j], coeffs[j], w, dim);
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
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a + i * n;
    double r0 = 0.0, r1 = 0.0, m0 = 0.0, m1 = 0.0;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      r0 += row[j] * xre[j];
      m0 += row[j] * xim[j];
      r1 += row[j + 1] * xre[j + 1];
      m1 += row[j + 1] * xim[j + 1];
    }
    for (; j < n; ++j) {
      r0 += row[j] * xre[j];
      m0 += row[j] * xim[j];
    }
    yre[i] = r0 + r1;
    yim[i] = m0 + m1;
  }
}

void gemv_t_planes(const double* a, std::size_t m, std::size_t n,
                   const double* xre, const double* xim, double* yre,
                   double* yim) {
  for (std::size_t j = 0; j < n; ++j) {
    yre[j] = 0.0;
    yim[j] = 0.0;
  }
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* r0 = a + i * n;
    const double* r1 = r0 + n;
    const double xr0 = xre[i], xi0 = xim[i];
    const double xr1 = xre[i + 1], xi1 = xim[i + 1];
    for (std::size_t j = 0; j < n; ++j) {
      yre[j] += r0[j] * xr0 + r1[j] * xr1;
      yim[j] += r0[j] * xi0 + r1[j] * xi1;
    }
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
