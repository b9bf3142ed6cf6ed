#include "phes/hamiltonian/shift_invert.hpp"

#include <vector>

#include "phes/la/kernels.hpp"
#include "phes/util/check.hpp"

namespace phes::hamiltonian {

SmwShiftInvertOp::SmwShiftInvertOp(
    const macromodel::SimoRealization& realization, Complex theta)
    : realization_(realization), theta_(theta) {
  const std::size_t p = realization_.ports();
  // H(theta) and H(-theta): O(n p^2) worth of structured evaluations
  // (each eval is O(n p); entries land in p x p matrices).
  const la::ComplexMatrix h_pos = realization_.eval(theta);
  const la::ComplexMatrix h_neg = realization_.eval(-theta);

  // K = [ -H(theta)  -I ;  I  H(-theta)^T ].
  la::ComplexMatrix k(2 * p, 2 * p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      k(i, j) = -h_pos(i, j);
      k(p + i, p + j) = h_neg(j, i);
    }
    k(i, p + i) = Complex(-1.0, 0.0);
    k(p + i, i) = Complex(1.0, 0.0);
  }
  k_lu_ = std::make_unique<la::LuFactorization<Complex>>(std::move(k));

  // Freeze the resolvent multipliers at theta.  For a pair block
  // [[alpha, beta], [-beta, alpha]]:
  //   (A - theta I)^{-1}:       g = alpha - theta, det = g^2 + beta^2,
  //                             c11 =  g / det,  c12 = -beta / det;
  //   -(A^T + theta I)^{-1}:    g' = alpha + theta, det = g'^2 + beta^2,
  //                             c11 = -g' / det, c12 = -beta / det
  // (the second folds solve_at_minus(-theta) plus the negation into
  // the same uniform 2x2 form).  Singles keep only c11.
  const auto& blocks = realization_.blocks();
  p_table_.reserve(blocks.size());
  q_table_.reserve(blocks.size());
  for (const auto& blk : blocks) {
    TableBlock pb{blk.state, blk.is_pair, {}, {}};
    TableBlock qb{blk.state, blk.is_pair, {}, {}};
    if (blk.is_pair) {
      const Complex g = Complex(blk.alpha, 0.0) - theta_;
      const Complex det = g * g + blk.beta * blk.beta;
      pb.c11 = g / det;
      pb.c12 = -blk.beta / det;
      const Complex gq = Complex(blk.alpha, 0.0) + theta_;
      const Complex detq = gq * gq + blk.beta * blk.beta;
      qb.c11 = -gq / detq;
      qb.c12 = -blk.beta / detq;
    } else {
      pb.c11 = 1.0 / (Complex(blk.alpha, 0.0) - theta_);
      qb.c11 = -1.0 / (Complex(blk.alpha, 0.0) + theta_);
    }
    p_table_.push_back(pb);
    q_table_.push_back(qb);
  }
}

namespace {

/// Apply a frozen resolvent table:  y = T x  block by block.  Each
/// complex product is written out the way std::complex evaluates it
/// for finite values, (ac - bd, ad + bc), so the bits are those of
/// `c11 * x1 + c12 * x2` without the NaN-recovery call that keeps the
/// std::complex product out of line.
template <typename Table>
void apply_table(const Table& table, std::span<const la::Complex> x,
                 la::Complex* y) {
  for (const auto& blk : table) {
    const std::size_t s = blk.state;
    const double ar = blk.c11.real(), ai = blk.c11.imag();
    const double x1r = x[s].real(), x1i = x[s].imag();
    if (blk.is_pair) {
      const double br = blk.c12.real(), bi = blk.c12.imag();
      const double nbr = -br, nbi = -bi;  // -c12
      const double x2r = x[s + 1].real(), x2i = x[s + 1].imag();
      y[s] = {(ar * x1r - ai * x1i) + (br * x2r - bi * x2i),
              (ar * x1i + ai * x1r) + (br * x2i + bi * x2r)};
      y[s + 1] = {(nbr * x1r - nbi * x1i) + (ar * x2r - ai * x2i),
                  (nbr * x1i + nbi * x1r) + (ar * x2i + ai * x2r)};
    } else {
      y[s] = {ar * x1r - ai * x1i, ar * x1i + ai * x1r};
    }
  }
}

}  // namespace

// The per-block complex divisions of the two resolvent halves are
// replaced by the multiplier tables frozen in the constructor (one
// table application = a handful of fused multiply-adds per block, no
// divides), and the dense C / C^T products run on split real/imag
// planes.
void SmwShiftInvertOp::apply(std::span<const Complex> x,
                             std::span<Complex> y) const {
  const std::size_t n = realization_.order();
  const std::size_t p = realization_.ports();
  util::check(x.size() == 2 * n && y.size() == 2 * n,
              "SmwShiftInvertOp::apply: size mismatch");

  thread_local la::ComplexVector g1, g2, w, bz, ctz, u1, u2;
  thread_local std::vector<double> planes;
  g1.resize(n);
  g2.resize(n);
  w.resize(2 * p);
  bz.resize(n);
  ctz.resize(n);
  u1.resize(n);
  u2.resize(n);
  planes.resize(2 * n + 2 * p);
  double* re = planes.data();
  double* im = re + n;
  double* pre = im + n;
  double* pim = pre + p;

  // G x: frozen tables, no divisions.
  apply_table(p_table_, x.subspan(0, n), g1.data());
  apply_table(q_table_, x.subspan(n, n), g2.data());

  // w = [C g1; B^T g2]: split-plane gemv for C, block scatter for B^T.
  const double* c = realization_.c().row_ptr(0);
  la::kernels::split_planes(g1.data(), n, re, im);
  la::kernels::gemv_planes(c, p, n, re, im, pre, pim);
  for (std::size_t i = 0; i < p; ++i) {
    w[i] = Complex(pre[i], pim[i]);
    w[p + i] = Complex{};
  }
  for (const auto& blk : realization_.blocks()) {
    w[p + blk.column] += g2[blk.state];
  }

  // z = K^{-1} w  (2p x 2p complex LU, unchanged).
  const la::ComplexVector z = k_lu_->solve(w);

  // U z = [B z1; C^T z2], then G (U z) through the same tables.
  for (std::size_t i = 0; i < n; ++i) bz[i] = Complex{};
  for (const auto& blk : realization_.blocks()) {
    bz[blk.state] = z[blk.column];
  }
  la::kernels::split_planes(z.data() + p, p, pre, pim);
  la::kernels::gemv_t_planes(c, p, n, pre, pim, re, im);
  la::kernels::merge_planes(re, im, n, ctz.data());
  apply_table(p_table_, {bz.data(), n}, u1.data());
  apply_table(q_table_, {ctz.data(), n}, u2.data());

  // y = G x - G U K^{-1} V G x.
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = g1[i] - u1[i];
    y[n + i] = g2[i] - u2[i];
  }
}

}  // namespace phes::hamiltonian
