#include "phes/core/arnoldi.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "phes/la/blas.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/kernels.hpp"
#include "phes/util/check.hpp"

namespace phes::core {

namespace {

// Orthogonalize the plane row `w` against basis rows [0, count) of
// `basis` and against the `nl` rows of the locked pack, accumulating
// projection coefficients for the basis rows into `coeffs` (length >=
// count).  One blocked classical Gram-Schmidt pass: ALL projections are
// taken against the un-updated w (one reduction sweep through the
// row-paired multi-accumulator dot kernels), then subtracted en bloc.
// Callers run it twice (CGS2), which restores the orthogonality
// quality of reorthogonalized MGS.
void cgs_pass(const double* basis, std::size_t count, const double* locked,
              std::size_t nl, double* w, std::size_t dim, Complex* coeffs,
              std::vector<Complex>& proj) {
  const std::size_t stride = 2 * dim;
  proj.resize(nl + count);
  la::kernels::dotc_rows(locked, stride, nl, w, dim, proj.data());
  la::kernels::dotc_rows(basis, stride, count, w, dim, proj.data() + nl);
  la::kernels::axpy_rows(locked, stride, nl, proj.data(), w, dim);
  la::kernels::axpy_rows(basis, stride, count, proj.data() + nl, w, dim);
  if (coeffs != nullptr) {
    for (std::size_t j = 0; j < count; ++j) coeffs[j] += proj[nl + j];
  }
}

// dst = src / norm on a plane row: std::complex / double divides both
// parts by norm, so this is bit for bit the interleaved division.
void scale_into(const double* src, double norm, std::size_t dim,
                double* dst) {
  for (std::size_t i = 0; i < 2 * dim; ++i) dst[i] = src[i] / norm;
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
                      std::span<const double> locked,
                      std::vector<double> storage) {
  const std::size_t dim = op.dim();
  util::check(v0.size() == dim, "arnoldi: start vector dimension mismatch");
  util::check(d >= 1 && d < dim, "arnoldi: need 1 <= d < dim");
  util::check(locked.size() % (2 * dim) == 0,
              "arnoldi: locked set is not a pack of dim-length rows");
  const std::size_t nl = locked.size() / (2 * dim);
  const double* const lrows = locked.data();

  // The Krylov space lives in the orthogonal complement of the locked
  // subspace; never ask for more directions than exist there, or the
  // process runs past exhaustion on roundoff noise and manufactures
  // spurious "converged" Ritz pairs.
  const std::size_t available = dim - nl;
  util::check(available >= 2, "arnoldi: locked subspace leaves no room");
  const std::size_t d_eff = std::min(d, available - 1);

  ArnoldiResult res;
  res.dim = dim;
  res.basis = std::move(storage);
  res.basis.assign((d_eff + 1) * 2 * dim, 0.0);
  res.h = ComplexMatrix(d_eff + 1, d_eff);
  double* const basis = res.basis.data();

  // Scratch lives outside the passes so a run allocates at most once.
  std::vector<Complex> proj;
  std::vector<double> w(2 * dim);

  // Normalize (and deflate) the start vector.
  la::kernels::split_planes(v0.data(), dim, w.data(), w.data() + dim);
  cgs_pass(basis, 0, lrows, nl, w.data(), dim, nullptr, proj);
  cgs_pass(basis, 0, lrows, nl, w.data(), dim, nullptr, proj);
  const double norm0 = la::kernels::nrm2_plane(w.data(), dim);
  util::require(norm0 > 1e-10,
                "arnoldi: start vector lies in the locked subspace");
  scale_into(w.data(), norm0, dim, basis);

  // The operator reads and writes interleaved vectors.
  ComplexVector x(dim);
  ComplexVector y(dim);
  std::vector<Complex> coeffs(d_eff + 1);
  for (std::size_t k = 0; k < d_eff; ++k) {
    // w = Op v_k.
    const double* vk = basis + 2 * dim * k;
    la::kernels::merge_planes(vk, vk + dim, dim, x.data());
    op.apply(x, y);
    ++res.matvecs;
    la::kernels::split_planes(y.data(), dim, w.data(), w.data() + dim);
    const double norm_before = la::kernels::nrm2_plane(w.data(), dim);

    // Two orthogonalization passes (CGS2, "twice is enough").
    std::fill(coeffs.begin(), coeffs.end(), Complex{});
    cgs_pass(basis, k + 1, lrows, nl, w.data(), dim, coeffs.data(), proj);
    cgs_pass(basis, k + 1, lrows, nl, w.data(), dim, coeffs.data(), proj);
    for (std::size_t j = 0; j <= k; ++j) res.h(j, k) = coeffs[j];

    const double norm = la::kernels::nrm2_plane(w.data(), dim);
    res.steps = k + 1;
    // Relative breakdown test: when Op v_k lies (numerically) in the
    // span already built, the subspace is invariant — stop rather than
    // continue on noise.
    if (norm <= 1e-10 * std::max(norm_before, 1e-300)) {
      res.h(k + 1, k) = Complex{};
      break;
    }
    res.h(k + 1, k) = Complex(norm, 0.0);
    scale_into(w.data(), norm, dim, basis + 2 * dim * (k + 1));
  }
  return res;
}

std::vector<RitzPair> ritz_pairs(const ArnoldiResult& ar) {
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
    pairs.push_back(std::move(p));
  }
  std::sort(pairs.begin(), pairs.end(), [](const RitzPair& a,
                                           const RitzPair& b) {
    return std::abs(a.value) > std::abs(b.value);
  });
  return pairs;
}

std::size_t lock_ritz_pairs(const ArnoldiResult& ar,
                            std::span<const RitzPair* const> pairs,
                            std::vector<double>& locked) {
  const std::size_t d = ar.steps;
  const std::size_t dim = ar.dim;
  util::check(locked.size() % (2 * dim) == 0,
              "lock_ritz_pairs: locked set is not a pack of dim-length rows");

  // MGS2 on the coordinates, kept vectors back to back in q.
  std::vector<Complex> q;
  q.reserve(pairs.size() * d);
  std::size_t kept = 0;
  for (const RitzPair* pair : pairs) {
    util::check(pair->coords.size() == d,
                "lock_ritz_pairs: pair does not belong to this Arnoldi run");
    q.insert(q.end(), pair->coords.begin(), pair->coords.end());
    Complex* const w = q.data() + kept * d;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t j = 0; j < kept; ++j) {
        const Complex* const qj = q.data() + j * d;
        Complex proj{};
        for (std::size_t i = 0; i < d; ++i) proj += std::conj(qj[i]) * w[i];
        for (std::size_t i = 0; i < d; ++i) w[i] -= proj * qj[i];
      }
    }
    const double norm = la::nrm2<Complex>(std::span<const Complex>(w, d));
    if (norm < 1e-8) {  // direction already represented
      q.resize(kept * d);
      continue;
    }
    for (std::size_t i = 0; i < d; ++i) w[i] /= norm;
    ++kept;
  }

  // Row x = 0 - sum_j (-q_j) v_j: the bits of adding q_j v_j in
  // ascending row order (negation is exact, and a zero coefficient adds
  // a zero to an x that starts at +0 and never turns -0).  One exact
  // reservation: doubling growth would raise peak RSS.
  for (Complex& c : q) c = -c;
  const std::size_t nl = locked.size() / (2 * dim);
  locked.reserve((nl + kept) * 2 * dim);
  locked.resize((nl + kept) * 2 * dim, 0.0);
  for (std::size_t j = 0; j < kept; ++j) {
    la::kernels::axpy_rows(ar.basis.data(), 2 * dim, d, q.data() + j * d,
                           locked.data() + (nl + j) * 2 * dim, dim);
  }
  return kept;
}

}  // namespace phes::core
