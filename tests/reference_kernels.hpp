#pragma once
// Reference oracle for the solver's kernels: the straight-line operator
// applies and the vector-at-a-time MGS2 Arnoldi that the library's
// kernels replaced, kept verbatim.  The library computes the same math
// with reordered reductions (split planes, resolvent tables, fused
// multi-RHS solves, blocked CGS2), so the two agree to rounding, not
// bit for bit.  test_la_kernels compares against these within
// rounding-level tolerances; bench_hamiltonian_apply times them as the
// "reference" side of its A/B gates.
//
// reference_qr is the exception: the column-at-a-time Householder loop
// that la::QrFactorization's row sweeps replaced keeps every operation
// in order, so test_la_kernels demands memcmp equality with it, and
// bench_la_kernels times it against la::least_squares.
//
// interleaved_arnoldi is core::arnoldi as it ran on interleaved
// std::complex storage (blocked CGS2 through the row-paired interleaved
// dot/axpy kernels), and reference_lock_ritz_pairs is
// core::lock_ritz_pairs on std::complex vectors: MGS2 on the Ritz
// coordinates, then each locked row summed over the basis rows in
// ascending order.  The library runs the same operations in the same
// order on plane rows, so test_la_kernels and bench_la_kernels demand
// memcmp equality with them.
//
// scalar_dotc_rows and scalar_gemv_planes are the plane-row kernels
// as written with scalar accumulators, before those accumulators
// became the lanes of two-double vectors, and scalar_gemv_t_planes is
// the two-rows-per-pass C^T product before it took four; the library
// must match them bit for bit too, with both builds of its row kernels
// (two lanes, and four on AVX2).  TableSmwOp is
// hamiltonian::SmwShiftInvertOp as it ran on those kernels with
// std::complex resolvent-table products, and reference_single_shift is
// core::single_shift_iteration (with its restart sizes) as it ran when
// every restart, the last one included, locked its converged Ritz
// pairs; test_la_kernels and test_core_single_shift demand memcmp
// equality with them.
//
// reference_dense_sigma_solve is the dense sigma least squares that
// vf::detail::fast_sigma_solve replaced.  The fast form eliminates the
// residues exactly, so test_vf compares whole fits against it to
// rounding-level tolerances.
//
// The factorizations (the 2p x 2p SMW matrix K, R = D^T D - I and
// S = D D^T - I) are built from the public SimoRealization API exactly
// as the library constructors build them, and the operators apply A, B
// and C through the straight-line realization kernels (apply_a,
// apply_b, apply_c, solve_a_minus, ...) defined first below.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/operators.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/kernels.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/matrix.hpp"
#include "phes/la/qr.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/check.hpp"
#include "phes/util/rng.hpp"

namespace phes::test {

// ---- Straight-line SimoRealization kernels ------------------------------
// A x, A^T x, B u, B^T x, (A - s I)^{-1} x, (A^T - s I)^{-1} x, C x and
// C^T y, one pole block (or one row of C) at a time, over the public
// blocks() / c() of a realization.  The library's operators fuse these
// into split-plane tables; the oracles below and test_transient's
// time stepper call them directly.

/// y = A x.
template <typename T>
void apply_a(const macromodel::SimoRealization& r, std::span<const T> x,
             std::span<T> y) {
  util::check(x.size() == r.order() && y.size() == r.order(),
              "apply_a: size mismatch");
  for (const auto& blk : r.blocks()) {
    if (blk.is_pair) {
      const T x1 = x[blk.state], x2 = x[blk.state + 1];
      y[blk.state] = blk.alpha * x1 + blk.beta * x2;
      y[blk.state + 1] = -blk.beta * x1 + blk.alpha * x2;
    } else {
      y[blk.state] = blk.alpha * x[blk.state];
    }
  }
}

/// y = A^T x.
template <typename T>
void apply_at(const macromodel::SimoRealization& r, std::span<const T> x,
              std::span<T> y) {
  util::check(x.size() == r.order() && y.size() == r.order(),
              "apply_at: size mismatch");
  for (const auto& blk : r.blocks()) {
    if (blk.is_pair) {
      const T x1 = x[blk.state], x2 = x[blk.state + 1];
      y[blk.state] = blk.alpha * x1 - blk.beta * x2;
      y[blk.state + 1] = blk.beta * x1 + blk.alpha * x2;
    } else {
      y[blk.state] = blk.alpha * x[blk.state];
    }
  }
}

/// x = B u (scatter each port input into its column's blocks).
template <typename T>
void apply_b(const macromodel::SimoRealization& r, std::span<const T> u,
             std::span<T> x) {
  util::check(u.size() == r.ports() && x.size() == r.order(),
              "apply_b: size mismatch");
  for (auto& v : x) v = T{};
  for (const auto& blk : r.blocks()) {
    x[blk.state] = u[blk.column];  // pair second state stays 0
  }
}

/// u = B^T x.
template <typename T>
void apply_bt(const macromodel::SimoRealization& r, std::span<const T> x,
              std::span<T> u) {
  util::check(u.size() == r.ports() && x.size() == r.order(),
              "apply_bt: size mismatch");
  for (auto& v : u) v = T{};
  for (const auto& blk : r.blocks()) {
    u[blk.column] += x[blk.state];
  }
}

/// y = (A - s I)^{-1} x with complex s.  O(n).
inline void solve_a_minus(const macromodel::SimoRealization& r, la::Complex s,
                          std::span<const la::Complex> x,
                          std::span<la::Complex> y) {
  util::check(x.size() == r.order() && y.size() == r.order(),
              "solve_a_minus: size mismatch");
  for (const auto& blk : r.blocks()) {
    if (blk.is_pair) {
      // Solve [[alpha-s, beta], [-beta, alpha-s]] y = x in closed form.
      const la::Complex g = la::Complex(blk.alpha, 0.0) - s;
      const la::Complex det = g * g + blk.beta * blk.beta;
      const la::Complex x1 = x[blk.state], x2 = x[blk.state + 1];
      y[blk.state] = (g * x1 - blk.beta * x2) / det;
      y[blk.state + 1] = (blk.beta * x1 + g * x2) / det;
    } else {
      y[blk.state] = x[blk.state] / (la::Complex(blk.alpha, 0.0) - s);
    }
  }
}

/// y = (A^T - s I)^{-1} x with complex s.  O(n).
inline void solve_at_minus(const macromodel::SimoRealization& r,
                           la::Complex s, std::span<const la::Complex> x,
                           std::span<la::Complex> y) {
  util::check(x.size() == r.order() && y.size() == r.order(),
              "solve_at_minus: size mismatch");
  for (const auto& blk : r.blocks()) {
    if (blk.is_pair) {
      // A^T block is [[alpha, -beta], [beta, alpha]].
      const la::Complex g = la::Complex(blk.alpha, 0.0) - s;
      const la::Complex det = g * g + blk.beta * blk.beta;
      const la::Complex x1 = x[blk.state], x2 = x[blk.state + 1];
      y[blk.state] = (g * x1 + blk.beta * x2) / det;
      y[blk.state + 1] = (-blk.beta * x1 + g * x2) / det;
    } else {
      y[blk.state] = x[blk.state] / (la::Complex(blk.alpha, 0.0) - s);
    }
  }
}

/// y = C x (dense p x n product).
inline void apply_c(const macromodel::SimoRealization& r,
                    std::span<const la::Complex> x,
                    std::span<la::Complex> y) {
  util::check(x.size() == r.order() && y.size() == r.ports(),
              "apply_c: size mismatch");
  for (std::size_t i = 0; i < r.ports(); ++i) {
    const double* row = r.c().row_ptr(i);
    la::Complex acc{};
    for (std::size_t j = 0; j < r.order(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

/// x = C^T y.
inline void apply_ct(const macromodel::SimoRealization& r,
                     std::span<const la::Complex> y,
                     std::span<la::Complex> x) {
  util::check(y.size() == r.ports() && x.size() == r.order(),
              "apply_ct: size mismatch");
  for (auto& v : x) v = la::Complex{};
  for (std::size_t i = 0; i < r.ports(); ++i) {
    const double* row = r.c().row_ptr(i);
    const la::Complex yi = y[i];
    for (std::size_t j = 0; j < r.order(); ++j) x[j] += row[j] * yi;
  }
}

/// Solve with a real LU against a complex right-hand side by splitting
/// real and imaginary parts (two independent solves).
inline la::ComplexVector reference_solve_real_lu(
    const la::LuFactorization<double>& lu,
    std::span<const la::Complex> rhs) {
  la::RealVector re(rhs.size()), im(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    re[i] = rhs[i].real();
    im[i] = rhs[i].imag();
  }
  const auto xre = lu.solve(re);
  const auto xim = lu.solve(im);
  la::ComplexVector x(rhs.size());
  for (std::size_t i = 0; i < rhs.size(); ++i) {
    x[i] = la::Complex(xre[i], xim[i]);
  }
  return x;
}

/// R = D^T D - I (transpose_first) or S = D D^T - I.
inline la::RealMatrix reference_gram_minus_identity(const la::RealMatrix& d,
                                                    bool transpose_first) {
  la::RealMatrix g = transpose_first ? la::gemm(la::transpose(d), d)
                                     : la::gemm(d, la::transpose(d));
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) -= 1.0;
  return g;
}

/// The SMW kernel K = [ -H(theta)  -I ;  I  H(-theta)^T ].
inline la::ComplexMatrix smw_kernel(
    const macromodel::SimoRealization& realization, la::Complex theta) {
  const std::size_t p = realization.ports();
  const la::ComplexMatrix h_pos = realization.eval(theta);
  const la::ComplexMatrix h_neg = realization.eval(-theta);
  la::ComplexMatrix k(2 * p, 2 * p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      k(i, j) = -h_pos(i, j);
      k(p + i, p + j) = h_neg(j, i);
    }
    k(i, p + i) = la::Complex(-1.0, 0.0);
    k(p + i, i) = la::Complex(1.0, 0.0);
  }
  return k;
}

/// (M - theta I)^{-1} x through the SMW closed form, with a complex
/// division per pole block and interleaved-complex C / C^T products.
/// Oracle for hamiltonian::SmwShiftInvertOp.
class ReferenceSmwOp final : public hamiltonian::ComplexLinearOperator {
 public:
  /// Keeps a reference to `realization`; the caller guarantees it
  /// outlives the operator.
  ReferenceSmwOp(const macromodel::SimoRealization& realization,
                 la::Complex theta)
      : realization_(realization),
        theta_(theta),
        k_lu_(smw_kernel(realization, theta)) {}

  [[nodiscard]] std::size_t dim() const noexcept override {
    return 2 * realization_.order();
  }

  void apply(std::span<const la::Complex> x,
             std::span<la::Complex> y) const override {
    using la::Complex;
    const std::size_t n = realization_.order();
    const std::size_t p = realization_.ports();
    util::check(x.size() == 2 * n && y.size() == 2 * n,
                "ReferenceSmwOp::apply: size mismatch");

    // G x with G = blkdiag((A - theta I)^{-1}, -(A^T + theta I)^{-1}).
    la::ComplexVector g1(n), g2(n);
    solve_a_minus(realization_, theta_, x.subspan(0, n), g1);
    solve_at_minus(realization_, -theta_, x.subspan(n, n), g2);
    for (auto& v : g2) v = -v;

    // w = V G x = [C g1; B^T g2].
    la::ComplexVector w(2 * p);
    {
      la::ComplexVector w1(p), w2(p);
      apply_c(realization_, g1, w1);
      apply_bt<Complex>(realization_, g2, w2);
      for (std::size_t i = 0; i < p; ++i) {
        w[i] = w1[i];
        w[p + i] = w2[i];
      }
    }

    // z = K^{-1} w.
    const la::ComplexVector z = k_lu_.solve(w);

    // U z = [B z1; C^T z2], then G (U z).
    la::ComplexVector u1(n), u2(n);
    {
      la::ComplexVector z1(z.begin(), z.begin() + static_cast<long>(p));
      la::ComplexVector z2(z.begin() + static_cast<long>(p), z.end());
      la::ComplexVector bz(n), ctz(n);
      apply_b<Complex>(realization_, z1, bz);
      apply_ct(realization_, z2, ctz);
      solve_a_minus(realization_, theta_, bz, u1);
      solve_at_minus(realization_, -theta_, ctz, u2);
      for (auto& v : u2) v = -v;
    }

    // y = G x - G U K^{-1} V G x.
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = g1[i] - u1[i];
      y[n + i] = g2[i] - u2[i];
    }
  }

 private:
  const macromodel::SimoRealization& realization_;
  la::Complex theta_;
  la::LuFactorization<la::Complex> k_lu_;  ///< 2p x 2p kernel K
};

/// y = M x with six independent R^{-1} / S^{-1} solves and separate
/// A / A^T traversals.  Oracle for hamiltonian::ImplicitHamiltonianOp.
class ReferenceImplicitOp final : public hamiltonian::ComplexLinearOperator {
 public:
  /// Keeps a reference to `realization`; the caller guarantees it
  /// outlives the operator.
  explicit ReferenceImplicitOp(const macromodel::SimoRealization& realization)
      : realization_(realization),
        r_lu_(reference_gram_minus_identity(realization.d(), true)),
        s_lu_(reference_gram_minus_identity(realization.d(), false)),
        d_(realization.d()) {}

  [[nodiscard]] std::size_t dim() const noexcept override {
    return 2 * realization_.order();
  }

  void apply(std::span<const la::Complex> x,
             std::span<la::Complex> y) const override {
    using la::Complex;
    const std::size_t n = realization_.order();
    const std::size_t p = realization_.ports();
    util::check(x.size() == 2 * n && y.size() == 2 * n,
                "ReferenceImplicitOp::apply: size mismatch");
    const auto x1 = x.subspan(0, n);
    const auto x2 = x.subspan(n, n);
    auto y1 = y.subspan(0, n);
    auto y2 = y.subspan(n, n);

    // u = C x1, v = B^T x2 (p-vectors).
    la::ComplexVector u(p), v(p);
    apply_c(realization_, x1, u);
    apply_bt<Complex>(realization_, x2, v);

    // t = R^{-1} (D^T u + v).
    la::ComplexVector dtu(p, Complex{});
    for (std::size_t i = 0; i < p; ++i) {
      Complex acc{};
      for (std::size_t j = 0; j < p; ++j) acc += d_(j, i) * u[j];  // D^T u
      dtu[i] = acc + v[i];
    }
    const auto t = reference_solve_real_lu(r_lu_, dtu);

    // y1 = A x1 - B t.
    apply_a<Complex>(realization_, x1, y1);
    la::ComplexVector bt(n);
    apply_b<Complex>(realization_, t, bt);
    for (std::size_t i = 0; i < n; ++i) y1[i] -= bt[i];

    // w = S^{-1} u + D R^{-1} v;  y2 = C^T w - A^T x2.
    const auto s_inv_u = reference_solve_real_lu(s_lu_, u);
    const auto r_inv_v = reference_solve_real_lu(r_lu_, v);
    la::ComplexVector w(p);
    for (std::size_t i = 0; i < p; ++i) {
      Complex acc{};
      for (std::size_t j = 0; j < p; ++j) acc += d_(i, j) * r_inv_v[j];
      w[i] = s_inv_u[i] + acc;
    }
    la::ComplexVector ctw(n);
    apply_ct(realization_, w, ctw);
    la::ComplexVector atx2(n);
    apply_at<Complex>(realization_, x2, atx2);
    for (std::size_t i = 0; i < n; ++i) y2[i] = ctw[i] - atx2[i];
  }

 private:
  const macromodel::SimoRealization& realization_;
  la::LuFactorization<double> r_lu_;  ///< R = D^T D - I
  la::LuFactorization<double> s_lu_;  ///< S = D D^T - I
  la::RealMatrix d_;
};

/// Dense matrix wrapped as an operator (test double): any dimension,
/// odd ones included.
class DenseOp final : public hamiltonian::ComplexLinearOperator {
 public:
  explicit DenseOp(la::ComplexMatrix m) : m_(std::move(m)) {}
  [[nodiscard]] std::size_t dim() const noexcept override {
    return m_.rows();
  }
  void apply(std::span<const la::Complex> x,
             std::span<la::Complex> y) const override {
    const auto r = la::gemv(m_, x);
    std::copy(r.begin(), r.end(), y.begin());
  }

 private:
  la::ComplexMatrix m_;
};

/// An Arnoldi run on interleaved storage, as the oracles below return
/// it: (steps+1) x dim basis, one orthonormal vector per row.
struct ReferenceArnoldi {
  la::ComplexMatrix v_rows;
  la::ComplexMatrix h;  ///< (steps+1) x steps Hessenberg projection
  std::size_t steps = 0;
  std::size_t matvecs = 0;
};

/// An interleaved vector as a plane row (re parts, then im parts).
inline core::PlaneVector to_planes(std::span<const la::Complex> x) {
  core::PlaneVector p(2 * x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    p[i] = x[i].real();
    p[x.size() + i] = x[i].imag();
  }
  return p;
}

/// A plane row as an interleaved vector.
inline la::ComplexVector from_planes(std::span<const double> p) {
  const std::size_t dim = p.size() / 2;
  la::ComplexVector x(dim);
  for (std::size_t i = 0; i < dim; ++i) x[i] = {p[i], p[dim + i]};
  return x;
}

/// Interleaved vectors of one length as a pack of plane rows, row j at
/// offset 2 * dim * j: the locked-set layout core::arnoldi reads.
inline std::vector<double> to_pack(std::span<const la::ComplexVector> xs) {
  std::vector<double> out;
  for (const auto& x : xs) {
    const core::PlaneVector p = to_planes(x);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

/// A pack of plane rows of length 2 * dim as interleaved vectors.
inline std::vector<la::ComplexVector> from_pack(std::span<const double> pack,
                                                std::size_t dim) {
  std::vector<la::ComplexVector> out;
  for (std::size_t off = 0; off + 2 * dim <= pack.size(); off += 2 * dim) {
    out.push_back(from_planes(pack.subspan(off, 2 * dim)));
  }
  return out;
}

/// Pointers to `pairs`, in order: the batch form core::lock_ritz_pairs
/// takes.
inline std::vector<const core::RitzPair*> pair_ptrs(
    std::span<const core::RitzPair> pairs) {
  std::vector<const core::RitzPair*> out;
  for (const auto& p : pairs) out.push_back(&p);
  return out;
}

/// The library's plane-row result in the oracles' interleaved form.
inline ReferenceArnoldi to_reference(const core::ArnoldiResult& ar) {
  ReferenceArnoldi r;
  const std::size_t rows = ar.dim == 0 ? 0 : ar.basis.size() / (2 * ar.dim);
  r.v_rows = la::ComplexMatrix(rows, ar.dim);
  for (std::size_t k = 0; k < rows; ++k) {
    const la::ComplexVector row = from_planes(std::span<const double>(
        ar.basis.data() + 2 * ar.dim * k, 2 * ar.dim));
    std::copy(row.begin(), row.end(), r.v_rows.row_ptr(k));
  }
  r.h = ar.h;
  r.steps = ar.steps;
  r.matvecs = ar.matvecs;
  return r;
}

// ---- Interleaved CGS2 Arnoldi: the bitwise oracle -----------------------
// core::arnoldi and its la::kernels dot/axpy kernels as they ran on
// interleaved std::complex storage: the kernels kept verbatim, the loop
// shared with the MGS2 oracle below.  The plane-row library keeps
// every accumulator, pairing and operation order, so test_la_kernels
// and bench_la_kernels demand memcmp equality in h, basis, steps and
// matvecs.

/// conj(v)*w with accumulators by i mod 4, summed (r0+r1)+(r2+r3).
inline la::Complex interleaved_dotc_one(const la::Complex* v,
                                        const la::Complex* w,
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

/// proj[0..1] for a row pair: per row one accumulator for even and one
/// for odd i.
inline void interleaved_dotc_two(const la::Complex* v0,
                                 const la::Complex* v1,
                                 const la::Complex* w, std::size_t dim,
                                 la::Complex* proj) {
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

/// w -= c0 * v0 + c1 * v1 in one pass over w.
inline void interleaved_axpy_two(const la::Complex* v0, la::Complex c0,
                                 const la::Complex* v1, la::Complex c1,
                                 la::Complex* w, std::size_t dim) {
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

inline void interleaved_axpy_one(const la::Complex* v, la::Complex c,
                                 la::Complex* w, std::size_t dim) {
  const double cr = c.real(), ci = c.imag();
  for (std::size_t i = 0; i < dim; ++i) {
    const double vr = v[i].real(), vi = v[i].imag();
    w[i] = {w[i].real() - (cr * vr - ci * vi),
            w[i].imag() - (cr * vi + ci * vr)};
  }
}

/// proj[j] = conj(row_j) . w over row pointers, rows paired.
inline void interleaved_dotc_ptrs(const la::Complex* const* rows,
                                  std::size_t count, const la::Complex* w,
                                  std::size_t dim, la::Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    interleaved_dotc_two(rows[j], rows[j + 1], w, dim, proj + j);
  }
  if (j < count) proj[j] = interleaved_dotc_one(rows[j], w, dim);
}

/// w -= sum_j coeffs[j] * row_j over row pointers, rows paired.
inline void interleaved_axpy_ptrs(const la::Complex* const* rows,
                                  std::size_t count,
                                  const la::Complex* coeffs, la::Complex* w,
                                  std::size_t dim) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    interleaved_axpy_two(rows[j], coeffs[j], rows[j + 1], coeffs[j + 1], w,
                         dim);
  }
  if (j < count) interleaved_axpy_one(rows[j], coeffs[j], w, dim);
}

/// One blocked CGS pass of `w` against the locked vectors (paired among
/// themselves) and rows [0, count) of `v_rows` (paired among
/// themselves): every projection against the un-updated w, then all
/// subtracted; basis-row projections accumulate into `coeffs`.
inline void interleaved_cgs_pass(const la::ComplexMatrix& v_rows,
                                 std::size_t count,
                                 std::span<const la::ComplexVector> locked,
                                 la::ComplexVector& w, la::Complex* coeffs) {
  const std::size_t dim = w.size();
  const std::size_t nl = locked.size();
  std::vector<la::Complex> proj(nl + count);
  std::vector<const la::Complex*> locked_ptrs(nl);
  for (std::size_t i = 0; i < nl; ++i) locked_ptrs[i] = locked[i].data();
  std::vector<const la::Complex*> rows(count);
  for (std::size_t j = 0; j < count; ++j) rows[j] = v_rows.row_ptr(j);
  interleaved_dotc_ptrs(locked_ptrs.data(), nl, w.data(), dim, proj.data());
  interleaved_dotc_ptrs(rows.data(), count, w.data(), dim,
                        proj.data() + nl);
  interleaved_axpy_ptrs(locked_ptrs.data(), nl, proj.data(), w.data(), dim);
  interleaved_axpy_ptrs(rows.data(), count, proj.data() + nl, w.data(), dim);
  if (coeffs != nullptr) {
    for (std::size_t j = 0; j < count; ++j) coeffs[j] += proj[nl + j];
  }
}

/// One modified Gram-Schmidt pass of `w` against every locked vector
/// and rows [0, count) of `v_rows`, vector at a time with immediate
/// subtraction; basis-row projections accumulate into `coeffs`.
inline void reference_mgs_pass(const la::ComplexMatrix& v_rows,
                               std::size_t count,
                               std::span<const la::ComplexVector> locked,
                               la::ComplexVector& w, la::Complex* coeffs) {
  using la::Complex;
  const std::size_t dim = w.size();
  for (const auto& lv : locked) {
    Complex proj{};
    const Complex* q = lv.data();
    for (std::size_t i = 0; i < dim; ++i) proj += std::conj(q[i]) * w[i];
    for (std::size_t i = 0; i < dim; ++i) w[i] -= proj * q[i];
  }
  for (std::size_t j = 0; j < count; ++j) {
    const Complex* vj = v_rows.row_ptr(j);
    Complex proj{};
    for (std::size_t i = 0; i < dim; ++i) proj += std::conj(vj[i]) * w[i];
    for (std::size_t i = 0; i < dim; ++i) w[i] -= proj * vj[i];
    if (coeffs != nullptr) coeffs[j] += proj;
  }
}

/// The Arnoldi loop shared by both oracles, over interleaved storage,
/// with `pass` as the orthogonalization (run twice per vector): same
/// contract and breakdown test as core::arnoldi.
template <typename Pass>
ReferenceArnoldi interleaved_arnoldi_loop(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const la::Complex> v0, std::size_t d,
    std::span<const la::ComplexVector> locked, Pass pass) {
  using la::Complex;
  const std::size_t dim = op.dim();
  util::check(v0.size() == dim, "arnoldi: start vector dimension mismatch");
  util::check(d >= 1 && d < dim, "arnoldi: need 1 <= d < dim");
  for (const auto& lv : locked) {
    util::check(lv.size() == dim, "arnoldi: locked vector dimension mismatch");
  }

  const std::size_t available = dim - locked.size();
  util::check(available >= 2, "arnoldi: locked subspace leaves no room");
  const std::size_t d_eff = std::min(d, available - 1);

  ReferenceArnoldi res;
  res.v_rows = la::ComplexMatrix(d_eff + 1, dim);
  res.h = la::ComplexMatrix(d_eff + 1, d_eff);

  // Normalize (and deflate) the start vector.
  {
    la::ComplexVector w(v0.begin(), v0.end());
    pass(res.v_rows, 0, locked, w, nullptr);
    pass(res.v_rows, 0, locked, w, nullptr);
    const double norm = la::nrm2<Complex>(w);
    util::require(norm > 1e-10,
                  "arnoldi: start vector lies in the locked subspace");
    Complex* row0 = res.v_rows.row_ptr(0);
    for (std::size_t i = 0; i < dim; ++i) row0[i] = w[i] / norm;
  }

  la::ComplexVector w(dim);
  std::vector<Complex> coeffs(d_eff + 1);
  for (std::size_t k = 0; k < d_eff; ++k) {
    op.apply(std::span<const Complex>(res.v_rows.row_ptr(k), dim), w);
    ++res.matvecs;
    const double norm_before = la::nrm2<Complex>(w);

    std::fill(coeffs.begin(), coeffs.end(), Complex{});
    pass(res.v_rows, k + 1, locked, w, coeffs.data());
    pass(res.v_rows, k + 1, locked, w, coeffs.data());
    for (std::size_t j = 0; j <= k; ++j) res.h(j, k) = coeffs[j];

    const double norm = la::nrm2<Complex>(w);
    res.steps = k + 1;
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

/// core::arnoldi as it ran on interleaved storage: blocked CGS2 through
/// the interleaved kernels.  Bit-identical to the library.
inline ReferenceArnoldi interleaved_arnoldi(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const la::Complex> v0, std::size_t d,
    std::span<const la::ComplexVector> locked) {
  return interleaved_arnoldi_loop(op, v0, d, locked, &interleaved_cgs_pass);
}

/// core::arnoldi with MGS plus one reorthogonalization pass (MGS2) in
/// place of blocked CGS2: same contract, same breakdown test.  Agrees
/// with the library to rounding.
inline ReferenceArnoldi reference_arnoldi(
    const hamiltonian::ComplexLinearOperator& op,
    std::span<const la::Complex> v0, std::size_t d,
    std::span<const la::ComplexVector> locked) {
  return interleaved_arnoldi_loop(op, v0, d, locked, &reference_mgs_pass);
}

// ---- Scalar plane-row kernels: the bitwise oracle of the vector ones ----
// la::kernels' dotc_rows and gemv_planes as they were written with
// scalar accumulators, kept verbatim.  The library holds the same
// accumulators as the lanes of two-double vectors, so test_la_kernels
// and bench_la_kernels demand memcmp equality.

/// conj(v)*w on plane rows with accumulators by i mod 4, summed
/// (r0+r1)+(r2+r3).
inline la::Complex scalar_dotc_one(const double* v, const double* w,
                                   std::size_t dim) {
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

/// proj[0..1] for a pair of plane rows: per row one accumulator for
/// even and one for odd i.
inline void scalar_dotc_two(const double* v0, const double* v1,
                            const double* w, std::size_t dim,
                            la::Complex* proj) {
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

/// la::kernels::dotc_rows with the scalar kernels.
inline void scalar_dotc_rows(const double* rows, std::size_t stride,
                             std::size_t count, const double* w,
                             std::size_t dim, la::Complex* proj) {
  std::size_t j = 0;
  for (; j + 2 <= count; j += 2) {
    scalar_dotc_two(rows + j * stride, rows + (j + 1) * stride, w, dim,
                    proj + j);
  }
  if (j < count) proj[j] = scalar_dotc_one(rows + j * stride, w, dim);
}

/// yre/yim = A xre/xim with per-row accumulators for even and odd j.
inline void scalar_gemv_planes(const double* a, std::size_t m,
                               std::size_t n, const double* xre,
                               const double* xim, double* yre,
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

/// yre/yim = A^T xre/xim with two rows per pass over y, each element
/// updated as y + (t0 + t1), and a lone last row as y + t0.
inline void scalar_gemv_t_planes(const double* a, std::size_t m,
                                 std::size_t n, const double* xre,
                                 const double* xim, double* yre,
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

/// hamiltonian::SmwShiftInvertOp with its resolvent tables applied
/// through std::complex products and its C / C^T products through
/// scalar_gemv_planes / scalar_gemv_t_planes: the apply before the
/// four-row passes and the written-out table products.  The tables and
/// K are built as the library constructor builds them.
class TableSmwOp final : public hamiltonian::ComplexLinearOperator {
 public:
  /// Keeps a reference to `realization`; the caller guarantees it
  /// outlives the operator.
  TableSmwOp(const macromodel::SimoRealization& realization,
             la::Complex theta)
      : realization_(realization), k_lu_(smw_kernel(realization, theta)) {
    using la::Complex;
    for (const auto& blk : realization.blocks()) {
      TableBlock pb{blk.state, blk.is_pair, {}, {}};
      TableBlock qb{blk.state, blk.is_pair, {}, {}};
      if (blk.is_pair) {
        const Complex g = Complex(blk.alpha, 0.0) - theta;
        const Complex det = g * g + blk.beta * blk.beta;
        pb.c11 = g / det;
        pb.c12 = -blk.beta / det;
        const Complex gq = Complex(blk.alpha, 0.0) + theta;
        const Complex detq = gq * gq + blk.beta * blk.beta;
        qb.c11 = -gq / detq;
        qb.c12 = -blk.beta / detq;
      } else {
        pb.c11 = 1.0 / (Complex(blk.alpha, 0.0) - theta);
        qb.c11 = -1.0 / (Complex(blk.alpha, 0.0) + theta);
      }
      p_table_.push_back(pb);
      q_table_.push_back(qb);
    }
  }

  [[nodiscard]] std::size_t dim() const noexcept override {
    return 2 * realization_.order();
  }

  void apply(std::span<const la::Complex> x,
             std::span<la::Complex> y) const override {
    using la::Complex;
    const std::size_t n = realization_.order();
    const std::size_t p = realization_.ports();
    util::check(x.size() == 2 * n && y.size() == 2 * n,
                "TableSmwOp::apply: size mismatch");
    la::ComplexVector g1(n), g2(n), w(2 * p), bz(n), ctz(n), u1(n), u2(n);
    std::vector<double> planes(2 * n + 2 * p);
    double* re = planes.data();
    double* im = re + n;
    double* pre = im + n;
    double* pim = pre + p;

    apply_table(p_table_, x.subspan(0, n), g1.data());
    apply_table(q_table_, x.subspan(n, n), g2.data());

    const double* c = realization_.c().row_ptr(0);
    la::kernels::split_planes(g1.data(), n, re, im);
    scalar_gemv_planes(c, p, n, re, im, pre, pim);
    for (std::size_t i = 0; i < p; ++i) {
      w[i] = Complex(pre[i], pim[i]);
      w[p + i] = Complex{};
    }
    for (const auto& blk : realization_.blocks()) {
      w[p + blk.column] += g2[blk.state];
    }

    const la::ComplexVector z = k_lu_.solve(w);

    for (std::size_t i = 0; i < n; ++i) bz[i] = Complex{};
    for (const auto& blk : realization_.blocks()) {
      bz[blk.state] = z[blk.column];
    }
    la::kernels::split_planes(z.data() + p, p, pre, pim);
    scalar_gemv_t_planes(c, p, n, pre, pim, re, im);
    la::kernels::merge_planes(re, im, n, ctz.data());
    apply_table(p_table_, {bz.data(), n}, u1.data());
    apply_table(q_table_, {ctz.data(), n}, u2.data());

    for (std::size_t i = 0; i < n; ++i) {
      y[i] = g1[i] - u1[i];
      y[n + i] = g2[i] - u2[i];
    }
  }

 private:
  struct TableBlock {
    std::size_t state = 0;
    bool is_pair = false;
    la::Complex c11{};
    la::Complex c12{};
  };

  static void apply_table(const std::vector<TableBlock>& table,
                          std::span<const la::Complex> x, la::Complex* y) {
    for (const auto& blk : table) {
      const std::size_t s = blk.state;
      if (blk.is_pair) {
        const la::Complex x1 = x[s], x2 = x[s + 1];
        y[s] = blk.c11 * x1 + blk.c12 * x2;
        y[s + 1] = -blk.c12 * x1 + blk.c11 * x2;
      } else {
        y[s] = blk.c11 * x[s];
      }
    }
  }

  const macromodel::SimoRealization& realization_;
  la::LuFactorization<la::Complex> k_lu_;  ///< 2p x 2p kernel K
  std::vector<TableBlock> p_table_;  ///< (A - theta I)^{-1}
  std::vector<TableBlock> q_table_;  ///< -(A^T + theta I)^{-1}
};

/// core::lock_ritz_pairs with std::complex products, on an interleaved
/// basis: two modified Gram-Schmidt passes over the coordinates in the
/// order of `pairs`, a residual norm below 1e-8 dropped, the others
/// normalized; then each kept q as the row V_d q, summed over the basis
/// rows with a nonzero coefficient in ascending order.  Returns the
/// rows lock_ritz_pairs appends.
inline std::vector<la::ComplexVector> reference_lock_ritz_pairs(
    const ReferenceArnoldi& ar,
    std::span<const core::RitzPair* const> pairs) {
  using la::Complex;
  std::vector<la::ComplexVector> qs;
  for (const core::RitzPair* pair : pairs) {
    la::ComplexVector w = pair->coords;
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : qs) {
        Complex proj{};
        for (std::size_t i = 0; i < w.size(); ++i) {
          proj += std::conj(q[i]) * w[i];
        }
        for (std::size_t i = 0; i < w.size(); ++i) w[i] -= proj * q[i];
      }
    }
    const double norm = la::nrm2<Complex>(w);
    if (norm < 1e-8) continue;  // direction already represented
    for (auto& x : w) x /= norm;
    qs.push_back(std::move(w));
  }
  const std::size_t dim = ar.v_rows.cols();
  std::vector<la::ComplexVector> rows;
  for (const auto& q : qs) {
    la::ComplexVector x(dim, Complex{});
    for (std::size_t row = 0; row < ar.steps; ++row) {
      if (q[row] == Complex{}) continue;
      const Complex* vr = ar.v_rows.row_ptr(row);
      for (std::size_t i = 0; i < dim; ++i) x[i] += vr[i] * q[row];
    }
    rows.push_back(std::move(x));
  }
  return rows;
}

/// core::single_shift_iteration as it ran before the final restart
/// stopped building deflation vectors: every restart, the last one
/// included, locks its batch of newly converged pairs.  It sizes its
/// restarts by the library's rule (restart 0 at d = min(core::kKrylovDim,
/// dim - 1), every later one at min(core::kConfirmDim, d)), so a
/// mismatch isolates the deflation vectors the library skips.  Each
/// restart allocates its own basis.
/// It accepts a Ritz pair by the library's rule
/// (core::ritz_pair_certified); kMaxRestarts and kRadiusSafety repeat
/// the library's file-local constants.
inline core::SingleShiftResult reference_single_shift(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, std::size_t min_restarts, util::Rng& rng) {
  using core::kClusterTol;
  using hamiltonian::SmwShiftInvertOp;
  using la::Complex;
  constexpr std::size_t kMaxRestarts = 10;
  constexpr double kRadiusSafety = 0.9;
  struct LockedEig {
    Complex lambda{};
    double distance = 0.0;
  };

  const double scale =
      std::max({std::abs(omega_center), realization.max_pole_magnitude(),
                1e-30});
  core::SingleShiftResult result;
  Complex theta(0.0, omega_center);
  std::shared_ptr<const SmwShiftInvertOp> op;
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      op = std::make_shared<const SmwShiftInvertOp>(realization, theta);
      ++result.factorizations;
      break;
    } catch (const std::runtime_error&) {
      theta += Complex(0.0, scale * 1e-9 * static_cast<double>(attempt + 1));
    }
  }
  util::require(op != nullptr, "reference_single_shift: singular kernel");

  const std::size_t dim = op->dim();
  const std::size_t d = std::min(core::kKrylovDim, dim - 1);
  const std::size_t d_confirm = std::min(core::kConfirmDim, d);
  std::vector<LockedEig> locked;
  std::vector<double> locked_vectors;
  double rho = rho0;
  double unconverged_limit = std::numeric_limits<double>::infinity();
  const auto already_locked = [&](Complex lambda) {
    for (const auto& le : locked) {
      if (std::abs(le.lambda - lambda) <= kClusterTol * scale) return true;
    }
    return false;
  };

  for (std::size_t restart = 0; restart < kMaxRestarts; ++restart) {
    if (locked_vectors.size() / (2 * dim) + 2 >= dim) break;
    const la::ComplexVector v0 = core::random_start_vector(dim, rng);
    core::ArnoldiResult ar;
    try {
      ar = core::arnoldi(*op, v0, restart == 0 ? d : d_confirm,
                         locked_vectors);
    } catch (const std::runtime_error&) {
      ++result.restarts;
      break;
    }
    result.matvecs += ar.matvecs;
    ++result.restarts;

    const auto pairs = core::ritz_pairs(ar);
    std::vector<const core::RitzPair*> newly_locked;
    std::size_t new_in_disk = 0;
    unconverged_limit = std::numeric_limits<double>::infinity();
    for (const auto& p : pairs) {
      const double mu_abs = std::abs(p.value);
      if (mu_abs < 1e3 * la::kEps / rho0) continue;
      const double dist = 1.0 / mu_abs;
      if (!core::ritz_pair_certified(p.residual, mu_abs, scale)) {
        unconverged_limit = std::min(unconverged_limit, dist);
        continue;
      }
      const Complex lambda = theta + 1.0 / p.value;
      if (already_locked(lambda)) continue;
      locked.push_back({lambda, std::abs(lambda - theta)});
      newly_locked.push_back(&p);
      if (locked.back().distance <= rho * 1.0000001) ++new_in_disk;
    }
    core::lock_ritz_pairs(ar, newly_locked, locked_vectors);

    std::sort(locked.begin(), locked.end(),
              [](const LockedEig& a, const LockedEig& b) {
                return a.distance < b.distance;
              });

    rho = rho0;
    if (!locked.empty() && locked.back().distance > rho) {
      rho = locked.back().distance * 1.0000001;
    }
    rho = std::min(rho, kRadiusSafety * unconverged_limit);

    if (restart + 1 >= min_restarts && new_in_disk == 0) break;
  }

  result.radius = rho;
  for (const auto& le : locked) {
    if (le.distance <= rho * 1.0000001) {
      result.eigenvalues.push_back(le.lambda);
    }
  }
  return result;
}

/// la::QrFactorization as it was before the row sweeps: the
/// constructor builds the factor column at a time, each trailing column
/// j walking down the rows.  solve and r are the library's own,
/// unchanged, so the two outputs compare the factorizations bit for
/// bit.
class ReferenceQr {
 public:
  explicit ReferenceQr(la::RealMatrix a) : qr_(std::move(a)) {
    util::check(qr_.rows() >= qr_.cols(),
                "QrFactorization: requires rows >= cols");
    const std::size_t m = qr_.rows(), n = qr_.cols();
    tau_.assign(n, 0.0);

    for (std::size_t k = 0; k < n; ++k) {
      // Build the Householder reflector annihilating qr_(k+1..m-1, k).
      double norm_x = 0.0;
      for (std::size_t i = k; i < m; ++i) norm_x += qr_(i, k) * qr_(i, k);
      norm_x = std::sqrt(norm_x);
      if (norm_x == 0.0) {
        tau_[k] = 0.0;
        continue;
      }
      const double alpha = qr_(k, k) >= 0.0 ? -norm_x : norm_x;
      // v = x - alpha e1, normalized so v(k) = 1; store v below diagonal.
      const double vk = qr_(k, k) - alpha;
      for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= vk;
      tau_[k] = -vk / alpha;  // tau = 2 / (v^T v) given the normalization
      qr_(k, k) = alpha;

      // Apply (I - tau v v^T) to the trailing columns.
      for (std::size_t j = k + 1; j < n; ++j) {
        double s = qr_(k, j);
        for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * qr_(i, j);
        s *= tau_[k];
        qr_(k, j) -= s;
        for (std::size_t i = k + 1; i < m; ++i) qr_(i, j) -= s * qr_(i, k);
      }
    }
  }

  [[nodiscard]] la::RealVector solve(la::RealVector b) const {
    util::check(b.size() == qr_.rows(),
                "QrFactorization::solve: size mismatch");
    const std::size_t n = qr_.cols();
    apply_qt(b);
    la::RealVector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = b[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= qr_(ii, j) * x[j];
      util::require(qr_(ii, ii) != 0.0,
                    "QrFactorization::solve: rank-deficient system");
      x[ii] = acc / qr_(ii, ii);
    }
    return x;
  }

  [[nodiscard]] la::RealMatrix r() const {
    const std::size_t n = qr_.cols();
    la::RealMatrix r(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) r(i, j) = qr_(i, j);
    }
    return r;
  }

 private:
  void apply_qt(la::RealVector& b) const {
    const std::size_t m = qr_.rows(), n = qr_.cols();
    for (std::size_t k = 0; k < n; ++k) {
      if (tau_[k] == 0.0) continue;
      double s = b[k];
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * b[i];
      s *= tau_[k];
      b[k] -= s;
      for (std::size_t i = k + 1; i < m; ++i) b[i] -= s * qr_(i, k);
    }
  }

  la::RealMatrix qr_;  // R in the upper triangle, reflectors below
  la::RealVector tau_;  // reflector scalars
};

/// The factorization of `a` by the oracle loop.
inline ReferenceQr reference_qr(la::RealMatrix a) {
  return ReferenceQr(std::move(a));
}

/// The full sigma system of column `col`, 2Kp x (p(nb+1) + nb): per
/// output its own residues and d, then the shared sigma coefficients,
/// solved with one dense QR.  Signature of vf::detail::SigmaSolve.
inline la::RealVector reference_dense_sigma_solve(
    const macromodel::FrequencySamples& samples, std::size_t col,
    std::span<const la::Complex> phi_all, std::size_t nb) {
  using la::Complex;
  using la::RealMatrix;
  using la::RealVector;
  const std::size_t p = samples.ports();
  const std::size_t k_samples = samples.count();
  const std::size_t n_res = nb + 1;          // residues + d per output
  const std::size_t n_unknown = p * n_res + nb;
  RealMatrix a(2 * k_samples * p, n_unknown);
  RealVector rhs(2 * k_samples * p);

  for (std::size_t m = 0; m < k_samples; ++m) {
    const Complex* const phi = phi_all.data() + m * nb;
    for (std::size_t i = 0; i < p; ++i) {
      const Complex h = samples.h[m](i, col);
      const std::size_t row_re = 2 * (m * p + i);
      const std::size_t row_im = row_re + 1;
      const std::size_t base = i * n_res;
      for (std::size_t b = 0; b < nb; ++b) {
        a(row_re, base + b) = phi[b].real();
        a(row_im, base + b) = phi[b].imag();
        // sigma part: -H(s) * phi_b(s) (shared unknowns at tail).
        const Complex hp = -h * phi[b];
        a(row_re, p * n_res + b) = hp.real();
        a(row_im, p * n_res + b) = hp.imag();
      }
      a(row_re, base + nb) = 1.0;  // d term (real)
      a(row_im, base + nb) = 0.0;
      rhs[row_re] = h.real();
      rhs[row_im] = h.imag();
    }
  }
  const RealVector x = la::least_squares(std::move(a), std::move(rhs));
  RealVector sigma_coeffs(nb);
  for (std::size_t b = 0; b < nb; ++b) sigma_coeffs[b] = x[p * n_res + b];
  return sigma_coeffs;
}

}  // namespace phes::test
