#include "phes/core/arnoldi.hpp"

#include <algorithm>
#include <cmath>

#include "phes/la/blas.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/kernels.hpp"
#include "phes/util/check.hpp"

namespace phes::core {

namespace {

// Orthogonalize `w` against rows [0, count) of `v_rows` and against all
// locked vectors, accumulating projection coefficients for the basis
// rows into `coeffs` (length >= count).  One blocked classical
// Gram-Schmidt pass: ALL projections are taken against the un-updated
// w (one reduction sweep through the row-paired multi-accumulator dot
// kernels), then subtracted en bloc.  Callers run it twice (CGS2),
// which restores the orthogonality quality of reorthogonalized MGS.
void cgs_pass(const ComplexMatrix& v_rows, std::size_t count,
              std::span<const ComplexVector> locked, ComplexVector& w,
              Complex* coeffs, std::vector<Complex>& proj,
              std::vector<const Complex*>& locked_ptrs) {
  const std::size_t dim = w.size();
  const std::size_t nl = locked.size();
  proj.resize(nl + count);
  if (nl > 0) {
    locked_ptrs.resize(nl);
    for (std::size_t i = 0; i < nl; ++i) locked_ptrs[i] = locked[i].data();
    la::kernels::dotc_ptrs(locked_ptrs.data(), nl, w.data(), dim,
                           proj.data());
  }
  if (count > 0) {
    la::kernels::dotc_rows(v_rows.row_ptr(0), v_rows.cols(), count, w.data(),
                           dim, proj.data() + nl);
  }
  if (nl > 0) {
    la::kernels::axpy_ptrs(locked_ptrs.data(), nl, proj.data(), w.data(),
                           dim);
  }
  if (count > 0) {
    la::kernels::axpy_rows(v_rows.row_ptr(0), v_rows.cols(), count,
                           proj.data() + nl, w.data(), dim);
  }
  if (coeffs != nullptr) {
    for (std::size_t j = 0; j < count; ++j) coeffs[j] += proj[nl + j];
  }
}

}  // namespace

ComplexVector random_start_vector(std::size_t dim, util::Rng& rng) {
  ComplexVector v(dim);
  for (auto& x : v) x = Complex(rng.normal(), rng.normal());
  const double norm = la::nrm2<Complex>(v);
  for (auto& x : v) x /= norm;
  return v;
}

ArnoldiResult arnoldi(const hamiltonian::ComplexLinearOperator& op,
                      std::span<const Complex> v0, std::size_t d,
                      std::span<const ComplexVector> locked) {
  const std::size_t dim = op.dim();
  util::check(v0.size() == dim, "arnoldi: start vector dimension mismatch");
  util::check(d >= 1 && d < dim, "arnoldi: need 1 <= d < dim");
  for (const auto& lv : locked) {
    util::check(lv.size() == dim, "arnoldi: locked vector dimension mismatch");
  }

  // The Krylov space lives in the orthogonal complement of the locked
  // subspace; never ask for more directions than exist there, or the
  // process runs past exhaustion on roundoff noise and manufactures
  // spurious "converged" Ritz pairs.
  const std::size_t available = dim - locked.size();
  util::check(available >= 2, "arnoldi: locked subspace leaves no room");
  const std::size_t d_eff = std::min(d, available - 1);

  ArnoldiResult res;
  res.v_rows = ComplexMatrix(d_eff + 1, dim);
  res.h = ComplexMatrix(d_eff + 1, d_eff);

  // Scratch lives outside the passes so a run allocates at most once.
  std::vector<Complex> proj;
  std::vector<const Complex*> locked_ptrs;

  // Normalize (and deflate) the start vector.
  {
    ComplexVector w(v0.begin(), v0.end());
    cgs_pass(res.v_rows, 0, locked, w, nullptr, proj, locked_ptrs);
    cgs_pass(res.v_rows, 0, locked, w, nullptr, proj, locked_ptrs);
    const double norm = la::nrm2<Complex>(w);
    util::require(norm > 1e-10,
                  "arnoldi: start vector lies in the locked subspace");
    Complex* row0 = res.v_rows.row_ptr(0);
    for (std::size_t i = 0; i < dim; ++i) row0[i] = w[i] / norm;
  }

  ComplexVector w(dim);
  std::vector<Complex> coeffs(d_eff + 1);
  for (std::size_t k = 0; k < d_eff; ++k) {
    // w = Op v_k.
    op.apply(std::span<const Complex>(res.v_rows.row_ptr(k), dim), w);
    ++res.matvecs;
    const double norm_before = la::nrm2<Complex>(w);

    // Two orthogonalization passes (CGS2, "twice is enough").
    std::fill(coeffs.begin(), coeffs.end(), Complex{});
    cgs_pass(res.v_rows, k + 1, locked, w, coeffs.data(), proj, locked_ptrs);
    cgs_pass(res.v_rows, k + 1, locked, w, coeffs.data(), proj, locked_ptrs);
    for (std::size_t j = 0; j <= k; ++j) res.h(j, k) = coeffs[j];

    const double norm = la::nrm2<Complex>(w);
    res.steps = k + 1;
    // Relative breakdown test: when Op v_k lies (numerically) in the
    // span already built, the subspace is invariant — stop rather than
    // continue on noise.
    if (norm <= 1e-10 * std::max(norm_before, 1e-300)) {
      res.h(k + 1, k) = Complex{};
      break;
    }
    res.h(k + 1, k) = Complex(norm, 0.0);
    Complex* next = res.v_rows.row_ptr(k + 1);
    for (std::size_t i = 0; i < dim; ++i) next[i] = w[i] / norm;
  }
  return res;
}

std::vector<RitzPair> ritz_pairs(const ArnoldiResult& ar, bool want_vectors) {
  const std::size_t d = ar.steps;
  std::vector<RitzPair> pairs;
  if (d == 0) return pairs;

  // Square projection H_d and the residual scale h(d+1, d).
  ComplexMatrix hd(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) hd(i, j) = ar.h(i, j);
  }
  const double beta = std::abs(ar.h(d, d - 1));

  const la::ComplexEigResult eig = la::hessenberg_eig(hd, true);
  pairs.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    RitzPair p;
    p.value = eig.values[j];
    p.coords = eig.vectors.col(j);
    p.residual = beta * std::abs(p.coords[d - 1]);
    if (want_vectors) p.vector = form_ritz_vector(ar, p);
    pairs.push_back(std::move(p));
  }
  std::sort(pairs.begin(), pairs.end(), [](const RitzPair& a,
                                           const RitzPair& b) {
    return std::abs(a.value) > std::abs(b.value);
  });
  return pairs;
}

ComplexVector form_ritz_vector(const ArnoldiResult& ar, const RitzPair& pair) {
  const std::size_t d = ar.steps;
  util::check(pair.coords.size() == d,
              "form_ritz_vector: pair does not belong to this Arnoldi run");
  const std::size_t dim = ar.v_rows.cols();
  ComplexVector x(dim, Complex{});
  // x += v * y spelled out as std::complex evaluates it for finite
  // values, (ac - bd, ad + bc): the same bits without the NaN-recovery
  // call that keeps the complex product from vectorizing.
  double* xd = reinterpret_cast<double*>(x.data());
  for (std::size_t row = 0; row < d; ++row) {
    const Complex yc = pair.coords[row];
    if (yc == Complex{}) continue;
    const double c = yc.real();
    const double s = yc.imag();
    const double* vr = reinterpret_cast<const double*>(ar.v_rows.row_ptr(row));
    for (std::size_t i = 0; i < 2 * dim; i += 2) {
      const double a = vr[i];
      const double b = vr[i + 1];
      xd[i] += a * c - b * s;
      xd[i + 1] += a * s + b * c;
    }
  }
  const double norm = la::nrm2<Complex>(x);
  if (norm > 0.0) {
    for (auto& e : x) e /= norm;
  }
  return x;
}

bool lock_vector(std::vector<ComplexVector>& locked, const ComplexVector& v) {
  ComplexVector w = v;
  const std::size_t n2 = 2 * w.size();
  double* wd = reinterpret_cast<double*>(w.data());
  // Complex products spelled out as std::complex evaluates them for
  // finite values: conj(q) * w = (ac + bd, ad - bc) and p * q =
  // (ac - bd, ad + bc), in the same loop order — the same bits.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : locked) {
      const double* qd = reinterpret_cast<const double*>(q.data());
      double pr = 0.0;
      double pi = 0.0;
      for (std::size_t i = 0; i < n2; i += 2) {
        pr += qd[i] * wd[i] + qd[i + 1] * wd[i + 1];
        pi += qd[i] * wd[i + 1] - qd[i + 1] * wd[i];
      }
      for (std::size_t i = 0; i < n2; i += 2) {
        wd[i] -= pr * qd[i] - pi * qd[i + 1];
        wd[i + 1] -= pr * qd[i + 1] + pi * qd[i];
      }
    }
  }
  const double norm = la::nrm2<Complex>(w);
  if (norm < 1e-8) return false;  // direction already represented
  for (auto& x : w) x /= norm;
  locked.push_back(std::move(w));
  return true;
}

}  // namespace phes::core
