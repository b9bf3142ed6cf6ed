#include "phes/hamiltonian/implicit_op.hpp"

#include <vector>

#include "phes/la/blas.hpp"
#include "phes/la/kernels.hpp"
#include "phes/la/svd.hpp"
#include "phes/util/check.hpp"

namespace phes::hamiltonian {

namespace {

// Builds R = D^T D - I or S = D D^T - I.
la::RealMatrix gram_minus_identity(const la::RealMatrix& d, bool transpose_first) {
  la::RealMatrix g = transpose_first ? la::gemm(la::transpose(d), d)
                                     : la::gemm(d, la::transpose(d));
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) -= 1.0;
  return g;
}

}  // namespace

ImplicitHamiltonianOp::ImplicitHamiltonianOp(
    const macromodel::SimoRealization& realization)
    : realization_(realization),
      r_lu_(gram_minus_identity(realization.d(), true)),
      s_lu_(gram_minus_identity(realization.d(), false)),
      d_(realization.d()) {
  const auto sigma_d = la::real_singular_values(d_);
  util::check(sigma_d.empty() || sigma_d.front() < 1.0,
              "ImplicitHamiltonianOp: requires sigma_max(D) < 1");
}

// The apply is restructured around the J-symmetry of the Hamiltonian
// halves:
//   - the dense C / C^T products run on split real/imag planes
//     (contiguous double loops instead of interleaved complex);
//   - R^{-1} is applied ONCE to the 4-plane block [D^T u + v | v] and
//     S^{-1} once to [u] via the fused multi-RHS LU solve, instead of
//     six independent triangular-solve passes;
//   - the A x1 and A^T x2 block traversals (and the B t subtraction)
//     are fused into one sweep over the pole blocks shared by y1/y2.
void ImplicitHamiltonianOp::apply(std::span<const Complex> x,
                                  std::span<Complex> y) const {
  const std::size_t n = realization_.order();
  const std::size_t p = realization_.ports();
  util::check(x.size() == 2 * n && y.size() == 2 * n,
              "ImplicitHamiltonianOp::apply: size mismatch");
  const auto x1 = x.subspan(0, n);
  const auto x2 = x.subspan(n, n);
  auto y1 = y.subspan(0, n);
  auto y2 = y.subspan(n, n);

  // Per-thread scratch: the operator is shared const across solver
  // threads, and the planes would otherwise cost six allocations per
  // apply.
  thread_local std::vector<double> plane_scratch;
  thread_local std::vector<double> port_scratch;
  plane_scratch.resize(4 * n);
  port_scratch.resize(8 * p);
  double* x1re = plane_scratch.data();
  double* x1im = x1re + n;
  double* ctwre = x1im + n;
  double* ctwim = ctwre + n;
  double* ure = port_scratch.data();
  double* uim = ure + p;
  double* vre = uim + p;
  double* vim = vre + p;
  double* dture = vim + p;
  double* dtuim = dture + p;
  double* wre = dtuim + p;
  double* wim = wre + p;

  const double* c = realization_.c().row_ptr(0);
  const double* d = d_.row_ptr(0);

  // u = C x1 on split planes; v = B^T x2 (block scatter, O(n)).
  la::kernels::split_planes(x1.data(), n, x1re, x1im);
  la::kernels::gemv_planes(c, p, n, x1re, x1im, ure, uim);
  for (std::size_t i = 0; i < p; ++i) {
    vre[i] = 0.0;
    vim[i] = 0.0;
  }
  for (const auto& blk : realization_.blocks()) {
    vre[blk.column] += x2[blk.state].real();
    vim[blk.column] += x2[blk.state].imag();
  }

  // dtu = D^T u + v.
  la::kernels::gemv_t_planes(d, p, p, ure, uim, dture, dtuim);
  for (std::size_t i = 0; i < p; ++i) {
    dture[i] += vre[i];
    dtuim[i] += vim[i];
  }

  // One fused solve each:  R^{-1} [dtu | v]  and  S^{-1} [u], four and
  // two real planes per LU sweep.
  la::RealMatrix r_rhs(p, 4);
  la::RealMatrix s_rhs(p, 2);
  for (std::size_t i = 0; i < p; ++i) {
    double* rr = r_rhs.row_ptr(i);
    rr[0] = dture[i];
    rr[1] = dtuim[i];
    rr[2] = vre[i];
    rr[3] = vim[i];
    double* sr = s_rhs.row_ptr(i);
    sr[0] = ure[i];
    sr[1] = uim[i];
  }
  const la::RealMatrix r_sol = r_lu_.solve_many(r_rhs);   // [t | R^{-1}v]
  const la::RealMatrix s_sol = s_lu_.solve_many(s_rhs);   // S^{-1}u

  // w = S^{-1} u + D R^{-1} v.
  for (std::size_t i = 0; i < p; ++i) {
    vre[i] = r_sol(i, 2);  // reuse the v planes for R^{-1} v
    vim[i] = r_sol(i, 3);
  }
  la::kernels::gemv_planes(d, p, p, vre, vim, wre, wim);
  for (std::size_t i = 0; i < p; ++i) {
    wre[i] += s_sol(i, 0);
    wim[i] += s_sol(i, 1);
  }

  // ctw = C^T w on split planes.
  la::kernels::gemv_t_planes(c, p, n, wre, wim, ctwre, ctwim);

  // Fused block sweep:  y1 = A x1 - B t,  y2 = C^T w - A^T x2.
  // Real and imaginary parts are computed as separate doubles: a real
  // factor scales each part of a complex value, so every part sees the
  // same operations in the same order as the std::complex expression
  // (alpha * xa + beta * xb - t, ...), bit for bit.  std::complex
  // temporaries here make GCC pack them through the stack, where each
  // packed reload stalls on store forwarding.
  for (const auto& blk : realization_.blocks()) {
    const std::size_t s = blk.state;
    const double a = blk.alpha, b = blk.beta;
    const double tr = r_sol(blk.column, 0), ti = r_sol(blk.column, 1);
    if (blk.is_pair) {
      const double xar = x1[s].real(), xai = x1[s].imag();
      const double xbr = x1[s + 1].real(), xbi = x1[s + 1].imag();
      y1[s] = Complex(a * xar + b * xbr - tr, a * xai + b * xbi - ti);
      y1[s + 1] = Complex(-b * xar + a * xbr, -b * xai + a * xbi);
      const double zar = x2[s].real(), zai = x2[s].imag();
      const double zbr = x2[s + 1].real(), zbi = x2[s + 1].imag();
      y2[s] = Complex(ctwre[s] - (a * zar - b * zbr),
                      ctwim[s] - (a * zai - b * zbi));
      y2[s + 1] = Complex(ctwre[s + 1] - (b * zar + a * zbr),
                          ctwim[s + 1] - (b * zai + a * zbi));
    } else {
      y1[s] = Complex(a * x1[s].real() - tr, a * x1[s].imag() - ti);
      y2[s] = Complex(ctwre[s] - a * x2[s].real(),
                      ctwim[s] - a * x2[s].imag());
    }
  }
}

}  // namespace phes::hamiltonian
