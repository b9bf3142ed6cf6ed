#include "phes/la/eig.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "phes/la/blas.hpp"
#include "phes/util/check.hpp"

namespace phes::la {

namespace {

// Complex Givens rotation (LAPACK zrotg convention):
// [ c        s ] [f]   [r]
// [-conj(s)  c ] [g] = [0],  c real >= 0.
struct Givens {
  double c = 1.0;
  Complex s{};
};

Givens make_givens(Complex f, Complex g) {
  Givens rot;
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

// Wilkinson shift: eigenvalue of the trailing 2x2 [a b; c d] closest
// to d.
Complex wilkinson_shift(Complex a, Complex b, Complex c, Complex d) {
  const Complex tr2 = 0.5 * (a + d);
  const Complex disc = std::sqrt(tr2 * tr2 - (a * d - b * c));
  const Complex l1 = tr2 + disc, l2 = tr2 - disc;
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

// Complex plane pair: entry (i, j) of an n x n matrix lives at i*n + j
// of `re` and `im`.
struct SplitMatrix {
  std::size_t n = 0;
  std::vector<double> re, im;

  explicit SplitMatrix(std::size_t size)
      : n(size), re(size * size, 0.0), im(size * size, 0.0) {}

  [[nodiscard]] Complex at(std::size_t i, std::size_t j) const {
    return {re[i * n + j], im[i * n + j]};
  }
  void clear(std::size_t i, std::size_t j) {
    re[i * n + j] = 0.0;
    im[i * n + j] = 0.0;
  }
};

// In-place rotation of the plane rows a = (ar, ai) and b = (br, bi)
// over [0, len):
//   a <- c*a + p*b,   b <- q*a + c*b,
// each complex product written out the way std::complex evaluates it
// (x*y = (xr*yr - xi*yi, xr*yi + xi*yr); a real factor scales each
// part), so the planes hold exactly the bits the interleaved loop
// would.
void rotate_rows(double* __restrict ar, double* __restrict ai,
                 double* __restrict br, double* __restrict bi,
                 std::size_t len, double c, double pr, double pi, double qr,
                 double qi) {
  for (std::size_t i = 0; i < len; ++i) {
    const double t1r = ar[i], t1i = ai[i], t2r = br[i], t2i = bi[i];
    ar[i] = c * t1r + (pr * t2r - pi * t2i);
    ai[i] = c * t1i + (pr * t2i + pi * t2r);
    br[i] = (qr * t1r - qi * t1i) + c * t2r;
    bi[i] = (qr * t1i + qi * t1r) + c * t2i;
  }
}

}  // namespace

ComplexEigResult hessenberg_eig(ComplexMatrix h, bool want_vectors) {
  util::check(h.is_square(), "hessenberg_eig: matrix must be square");
  const std::size_t n = h.rows();
  ComplexEigResult result;
  if (n == 0) return result;

  // Clear below-subdiagonal garbage so the iteration invariant holds.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < i; ++j) h(i, j) = Complex{};
  }
  const double norm_scale = std::max(frobenius_norm(h), 1e-300);

  // T in split planes, row-major; the Schur basis Z transposed, so
  // row k of `zt` is column k of Z and every Z update is a row sweep.
  SplitMatrix t(n);
  for (std::size_t i = 0; i < n * n; ++i) {
    t.re[i] = h.data()[i].real();
    t.im[i] = h.data()[i].imag();
  }
  SplitMatrix zt(want_vectors ? n : 0);
  for (std::size_t i = 0; i < zt.n; ++i) zt.re[i * n + i] = 1.0;

  if (n > 1) {
    std::size_t m = n - 1;
    std::size_t iter = 0, total_iter = 0;
    const std::size_t max_total = 60 * n;
    while (true) {
      // Deflation scan.  Most rows fail the test by a wide margin, and
      // cheap |re|, |im| bounds settle those without the three hypot
      // calls of the exact test.  The bounds cannot change its outcome:
      //  - hypot(re, im) >= max(|re|, |im|) >= 0.5 * max, so the
      //    computed `sub` is at least `half_max`;
      //  - |z| <= |re| + |im|, and computed hypots and sums are
      //    faithfully rounded (within an ulp of the exact value), so
      //    twice the summed |re| + |im| of the two diagonal entries is
      //    at least the computed `ref`: the factor 2 dwarfs the few
      //    ulps of rounding on either side;
      //  - rounded products are monotone, so `bound` >= kEps * ref.
      // A skip therefore means sub > kEps * ref, the exact test's
      // verdict (a NaN `sub`, which std::max may hide, makes the exact
      // test skip as well).  A bound that overflows, underflows to 0
      // (this covers ref == 0, which the exact test replaces by
      // norm_scale) or is NaN fails `bound > 0.0 && half_max > bound`
      // and falls through to the exact test.
      std::size_t l = m;
      while (l > 0) {
        const std::size_t sl = l * n + (l - 1);
        const std::size_t da = (l - 1) * n + (l - 1);
        const std::size_t db = l * n + l;
        const double half_max =
            0.5 * std::max(std::abs(t.re[sl]), std::abs(t.im[sl]));
        const double bound =
            kEps * (2.0 * ((std::abs(t.re[da]) + std::abs(t.im[da])) +
                           (std::abs(t.re[db]) + std::abs(t.im[db]))));
        if (bound > 0.0 && half_max > bound) {
          --l;
          continue;
        }
        const double sub = std::abs(t.at(l, l - 1));
        double ref = std::abs(t.at(l - 1, l - 1)) + std::abs(t.at(l, l));
        if (ref == 0.0) ref = norm_scale;
        if (sub <= kEps * ref) {
          t.clear(l, l - 1);
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
        mu = t.at(m, m) + Complex(1.5 * std::abs(t.at(m, m - 1)), 0.0);
      } else {
        mu = wilkinson_shift(t.at(m - 1, m - 1), t.at(m - 1, m),
                             t.at(m, m - 1), t.at(m, m));
      }

      // Implicit single-shift QR sweep on block [l, m] via Givens chase.
      Complex x = t.at(l, l) - mu;
      Complex y = t.at(l + 1, l);
      for (std::size_t k = l; k <= m - 1; ++k) {
        const Givens g = make_givens(x, y);
        const double c = g.c, sr = g.s.real(), si = g.s.imag();
        const double nsr = -sr, nsi = -si;
        // Left rotation on rows k, k+1 by [c s; -conj(s) c], with
        // -conj(s) = (nsr, si).
        const std::size_t c0 = (k > l) ? k - 1 : l;
        rotate_rows(&t.re[k * n + c0], &t.im[k * n + c0],
                    &t.re[(k + 1) * n + c0], &t.im[(k + 1) * n + c0], n - c0,
                    c, sr, si, nsr, si);
        // Right rotation on columns k, k+1 by the adjoint: p = conj(s)
        // = (sr, nsi), q = -s = (nsr, nsi).  Strided down T's column
        // pair, contiguous along Z^T's rows.
        const std::size_t r1 = std::min(k + 2, m);
        for (std::size_t i = 0; i <= r1; ++i) {
          const std::size_t ik = i * n + k;
          const double t1r = t.re[ik], t1i = t.im[ik];
          const double t2r = t.re[ik + 1], t2i = t.im[ik + 1];
          t.re[ik] = c * t1r + (sr * t2r - nsi * t2i);
          t.im[ik] = c * t1i + (sr * t2i + nsi * t2r);
          t.re[ik + 1] = (nsr * t1r - nsi * t1i) + c * t2r;
          t.im[ik + 1] = (nsr * t1i + nsi * t1r) + c * t2i;
        }
        if (want_vectors) {
          rotate_rows(&zt.re[k * n], &zt.im[k * n], &zt.re[(k + 1) * n],
                      &zt.im[(k + 1) * n], n, c, sr, nsi, nsr, nsi);
        }
        if (k > l) t.clear(k + 1, k - 1);  // clear chased bulge residue
        if (k + 1 <= m - 1) {
          x = t.at(k + 1, k);
          y = t.at(k + 2, k);
        }
      }
    }
  }

  result.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) result.values[i] = t.at(i, i);

  if (want_vectors) {
    // Back-substitution for eigenvectors of the triangular factor, then
    // rotate back through the accumulated Schur vectors.
    result.vectors = ComplexMatrix(n, n);
    const double small = kEps * norm_scale;
    ComplexVector y_vec(n), v(n);
    std::vector<double> vr(n), vi(n);
    for (std::size_t j = 0; j < n; ++j) {
      std::fill(y_vec.begin(), y_vec.end(), Complex{});
      y_vec[j] = Complex(1.0, 0.0);
      const Complex lambda = t.at(j, j);
      for (std::size_t ii = j; ii-- > 0;) {
        // acc = sum_k t(ii, k) * y(k), one complex product at a time.
        double acc_r = 0.0, acc_i = 0.0;
        const double* tr = &t.re[ii * n];
        const double* ti = &t.im[ii * n];
        for (std::size_t k = ii + 1; k <= j; ++k) {
          const double yr = y_vec[k].real(), yi = y_vec[k].imag();
          acc_r = acc_r + (tr[k] * yr - ti[k] * yi);
          acc_i = acc_i + (tr[k] * yi + ti[k] * yr);
        }
        Complex denom = t.at(ii, ii) - lambda;
        if (std::abs(denom) < small) {
          denom = Complex(small, small);  // perturb repeated eigenvalue
        }
        y_vec[ii] = -Complex(acc_r, acc_i) / denom;
      }
      // v = Z y, normalized: v(i) accumulates z(i, k) * y(k) in
      // ascending k, swept over i along the rows of Z^T.
      std::fill(vr.begin(), vr.end(), 0.0);
      std::fill(vi.begin(), vi.end(), 0.0);
      for (std::size_t k = 0; k <= j; ++k) {
        const double yr = y_vec[k].real(), yi = y_vec[k].imag();
        const double* zr = &zt.re[k * n];
        const double* zi = &zt.im[k * n];
        for (std::size_t i = 0; i < n; ++i) {
          vr[i] = vr[i] + (zr[i] * yr - zi[i] * yi);
          vi[i] = vi[i] + (zr[i] * yi + zi[i] * yr);
        }
      }
      for (std::size_t i = 0; i < n; ++i) v[i] = Complex(vr[i], vi[i]);
      const double nv = nrm2<Complex>(v);
      if (nv > 0.0) {
        for (auto& e : v) e /= nv;
      }
      result.vectors.set_col(j, v);
    }
  }
  return result;
}

}  // namespace phes::la
