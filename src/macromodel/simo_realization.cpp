#include "phes/macromodel/simo_realization.hpp"

#include <algorithm>
#include <cmath>

#include "phes/util/check.hpp"

namespace phes::macromodel {

SimoRealization::SimoRealization(const PoleResidueModel& model)
    : d_(model.d()) {
  const std::size_t p = model.ports();
  order_ = model.order();
  c_ = RealMatrix(p, order_);

  std::size_t state = 0;
  for (std::size_t k = 0; k < p; ++k) {
    const auto& col = model.columns()[k];
    for (const auto& t : col.real_terms) {
      SimoBlock blk;
      blk.state = state;
      blk.column = k;
      blk.is_pair = false;
      blk.alpha = t.pole;
      blocks_.push_back(blk);
      for (std::size_t i = 0; i < p; ++i) c_(i, state) = t.residue[i];
      state += 1;
    }
    for (const auto& t : col.complex_terms) {
      SimoBlock blk;
      blk.state = state;
      blk.column = k;
      blk.is_pair = true;
      blk.alpha = t.pole.real();
      blk.beta = t.pole.imag();
      blocks_.push_back(blk);
      // Real realization of r/(s-l) + r*/(s-l*) with b = (1, 0)^T:
      // C columns are [2 Re r, 2 Im r].
      for (std::size_t i = 0; i < p; ++i) {
        c_(i, state) = 2.0 * t.residue[i].real();
        c_(i, state + 1) = 2.0 * t.residue[i].imag();
      }
      state += 2;
    }
  }
}

double SimoRealization::max_pole_magnitude() const noexcept {
  double m = 0.0;
  for (const auto& blk : blocks_) {
    m = std::max(m, std::hypot(blk.alpha, blk.beta));
  }
  return m;
}

ComplexMatrix SimoRealization::eval(Complex s) const {
  const std::size_t p = ports();
  ComplexMatrix h(p, p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t k = 0; k < p; ++k) h(i, k) = Complex(d_(i, k), 0.0);
  }
  // Per block: z = (sI - A_blk)^{-1} b_blk, then H(:, col) += C_blk z.
  for (const auto& blk : blocks_) {
    if (blk.is_pair) {
      const Complex g = s - blk.alpha;
      const Complex det = g * g + blk.beta * blk.beta;
      const Complex z1 = g / det;
      const Complex z2 = -blk.beta / det;
      for (std::size_t i = 0; i < p; ++i) {
        h(i, blk.column) += c_(i, blk.state) * z1 + c_(i, blk.state + 1) * z2;
      }
    } else {
      const Complex z = 1.0 / (s - blk.alpha);
      for (std::size_t i = 0; i < p; ++i) {
        h(i, blk.column) += c_(i, blk.state) * z;
      }
    }
  }
  return h;
}

void SimoRealization::resolvent_b(Complex s, std::span<const Complex> v,
                                  std::span<Complex> z) const {
  util::check(v.size() == ports() && z.size() == order_,
              "SimoRealization::resolvent_b: size mismatch");
  for (const auto& blk : blocks_) {
    const Complex u = v[blk.column];
    if (blk.is_pair) {
      const Complex g = s - blk.alpha;
      const Complex det = g * g + blk.beta * blk.beta;
      z[blk.state] = g * u / det;
      z[blk.state + 1] = -blk.beta * u / det;
    } else {
      z[blk.state] = u / (s - blk.alpha);
    }
  }
}

StateSpaceModel SimoRealization::to_dense() const {
  const std::size_t n = order_, p = ports();
  StateSpaceModel ss;
  ss.a = RealMatrix(n, n);
  ss.b = RealMatrix(n, p);
  ss.c = c_;
  ss.d = d_;
  for (const auto& blk : blocks_) {
    if (blk.is_pair) {
      ss.a(blk.state, blk.state) = blk.alpha;
      ss.a(blk.state, blk.state + 1) = blk.beta;
      ss.a(blk.state + 1, blk.state) = -blk.beta;
      ss.a(blk.state + 1, blk.state + 1) = blk.alpha;
      ss.b(blk.state, blk.column) = 1.0;
    } else {
      ss.a(blk.state, blk.state) = blk.alpha;
      ss.b(blk.state, blk.column) = 1.0;
    }
  }
  return ss;
}

}  // namespace phes::macromodel
