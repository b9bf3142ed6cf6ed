#include "phes/la/kernels.hpp"

namespace phes::la {

namespace kernels {

namespace {

// One conj(v)*w dot product with four independent re/im accumulator
// pairs: the serial complex-add chain is the latency bottleneck of the
// straight-line Gram-Schmidt, and four chains keep the FMA pipes busy.
inline Complex dotc_one(const Complex* v, const Complex* w,
                        std::size_t dim) {
  double re0 = 0.0, im0 = 0.0, re1 = 0.0, im1 = 0.0;
  double re2 = 0.0, im2 = 0.0, re3 = 0.0, im3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    const double vr0 = v[i].real(), vi0 = v[i].imag();
    const double wr0 = w[i].real(), wi0 = w[i].imag();
    re0 += vr0 * wr0 + vi0 * wi0;
    im0 += vr0 * wi0 - vi0 * wr0;
    const double vr1 = v[i + 1].real(), vi1 = v[i + 1].imag();
    const double wr1 = w[i + 1].real(), wi1 = w[i + 1].imag();
    re1 += vr1 * wr1 + vi1 * wi1;
    im1 += vr1 * wi1 - vi1 * wr1;
    const double vr2 = v[i + 2].real(), vi2 = v[i + 2].imag();
    const double wr2 = w[i + 2].real(), wi2 = w[i + 2].imag();
    re2 += vr2 * wr2 + vi2 * wi2;
    im2 += vr2 * wi2 - vi2 * wr2;
    const double vr3 = v[i + 3].real(), vi3 = v[i + 3].imag();
    const double wr3 = w[i + 3].real(), wi3 = w[i + 3].imag();
    re3 += vr3 * wr3 + vi3 * wi3;
    im3 += vr3 * wi3 - vi3 * wr3;
  }
  for (; i < dim; ++i) {
    const double vr = v[i].real(), vi = v[i].imag();
    const double wr = w[i].real(), wi = w[i].imag();
    re0 += vr * wr + vi * wi;
    im0 += vr * wi - vi * wr;
  }
  return {(re0 + re1) + (re2 + re3), (im0 + im1) + (im2 + im3)};
}

// proj[j..j+1] for a pair of rows sharing one pass over w.
inline void dotc_two(const Complex* v0, const Complex* v1, const Complex* w,
                     std::size_t dim, Complex* proj) {
  double re0 = 0.0, im0 = 0.0, re1 = 0.0, im1 = 0.0;
  double re2 = 0.0, im2 = 0.0, re3 = 0.0, im3 = 0.0;
  std::size_t i = 0;
  for (; i + 2 <= dim; i += 2) {
    const double wr0 = w[i].real(), wi0 = w[i].imag();
    const double wr1 = w[i + 1].real(), wi1 = w[i + 1].imag();
    double vr = v0[i].real(), vi = v0[i].imag();
    re0 += vr * wr0 + vi * wi0;
    im0 += vr * wi0 - vi * wr0;
    vr = v0[i + 1].real(), vi = v0[i + 1].imag();
    re1 += vr * wr1 + vi * wi1;
    im1 += vr * wi1 - vi * wr1;
    vr = v1[i].real(), vi = v1[i].imag();
    re2 += vr * wr0 + vi * wi0;
    im2 += vr * wi0 - vi * wr0;
    vr = v1[i + 1].real(), vi = v1[i + 1].imag();
    re3 += vr * wr1 + vi * wi1;
    im3 += vr * wi1 - vi * wr1;
  }
  for (; i < dim; ++i) {
    const double wr = w[i].real(), wi = w[i].imag();
    double vr = v0[i].real(), vi = v0[i].imag();
    re0 += vr * wr + vi * wi;
    im0 += vr * wi - vi * wr;
    vr = v1[i].real(), vi = v1[i].imag();
    re2 += vr * wr + vi * wi;
    im2 += vr * wi - vi * wr;
  }
  proj[0] = {re0 + re1, im0 + im1};
  proj[1] = {re2 + re3, im2 + im3};
}

// w -= c0 * v0 + c1 * v1 in one pass over w.
inline void axpy_two(const Complex* v0, Complex c0, const Complex* v1,
                     Complex c1, Complex* w, std::size_t dim) {
  const double c0r = c0.real(), c0i = c0.imag();
  const double c1r = c1.real(), c1i = c1.imag();
  for (std::size_t i = 0; i < dim; ++i) {
    const double v0r = v0[i].real(), v0i = v0[i].imag();
    const double v1r = v1[i].real(), v1i = v1[i].imag();
    const double wr = w[i].real() - (c0r * v0r - c0i * v0i) -
                      (c1r * v1r - c1i * v1i);
    const double wi = w[i].imag() - (c0r * v0i + c0i * v0r) -
                      (c1r * v1i + c1i * v1r);
    w[i] = {wr, wi};
  }
}

inline void axpy_one(const Complex* v, Complex c, Complex* w,
                     std::size_t dim) {
  const double cr = c.real(), ci = c.imag();
  for (std::size_t i = 0; i < dim; ++i) {
    const double vr = v[i].real(), vi = v[i].imag();
    w[i] = {w[i].real() - (cr * vr - ci * vi),
            w[i].imag() - (cr * vi + ci * vr)};
  }
}

}  // namespace

void dotc_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two(rows + j * stride, rows + (j + 1) * stride, w, dim, proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows + j * stride, w, dim);
}

void dotc_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* w, std::size_t dim, Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    dotc_two(rows[j], rows[j + 1], w, dim, proj + j);
  }
  if (j < count) proj[j] = dotc_one(rows[j], w, dim);
}

void axpy_rows(const Complex* rows, std::size_t stride, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    axpy_two(rows + j * stride, coeffs[j], rows + (j + 1) * stride,
             coeffs[j + 1], w, dim);
  }
  if (j < count) axpy_one(rows + j * stride, coeffs[j], w, dim);
}

void axpy_ptrs(const Complex* const* rows, std::size_t count,
               const Complex* coeffs, Complex* w, std::size_t dim) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    axpy_two(rows[j], coeffs[j], rows[j + 1], coeffs[j + 1], w, dim);
  }
  if (j < count) axpy_one(rows[j], coeffs[j], w, dim);
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
