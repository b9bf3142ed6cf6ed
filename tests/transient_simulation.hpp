#pragma once
// Time-domain co-simulation of a scattering macromodel terminated by
// resistive loads — the experiment behind the paper's motivation:
// "Non-passive macromodels do not guarantee the global stability of
// transient simulations, due to their ability to amplify the energy
// they are fed with" (Sec. I).
//
// The macromodel is the scattering relation b = H(s) a between incident
// waves a and reflected waves b (reference impedance Z0).  Terminating
// every port with a resistor R_k and source e_k closes the loop:
//
//   a = Gamma b + c,   Gamma = diag((R_k - Z0)/(R_k + Z0)),
//                      c_k   = e_k * sqrt(Z0) / (R_k + Z0) * ...
//
// (the exact source scaling is irrelevant for the stability question;
// we drive with a unit incident-wave pulse).  With H in state-space
// form the closed loop is
//
//   dx/dt = A x + B a,   b = C x + D a,   a = Gamma b + c
//   =>  dx/dt = (A + B Gamma K C) x + B (I + Gamma K D - ...) ...
//
// solved here by the trapezoidal rule (the integrator SPICE-class
// solvers use), which is A-stable: any blow-up observed is a property
// of the model, not of the integrator.  A passive model terminated by
// passive loads can only dissipate the injected energy; a non-passive
// model can amplify it, and for |Gamma| close to 1 the closed loop has
// right-half-plane poles.
//
// Test oracle, header-only: test_transient checks the Hamiltonian
// passivity verdict against these simulations.  A x and B u come from
// the straight-line realization kernels of reference_kernels.hpp.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <span>

#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/check.hpp"
#include "reference_kernels.hpp"

namespace phes::test {

struct TransientOptions {
  double dt = 1e-3;            ///< time step (in the model's time units)
  std::size_t steps = 20000;   ///< number of trapezoidal steps
  /// Reflection coefficient of every termination (|gamma| <= 1 is a
  /// passive load; gamma = -1 is a short, 0 a match, +1 an open).
  double termination_gamma = -0.95;
  /// Optional per-port reflection coefficients; overrides
  /// termination_gamma when non-empty (size p, each |gamma_k| <= 1).
  la::RealVector termination_gammas;
  /// Width of the raised-cosine incident pulse on port 0.
  double pulse_width = 1.0;
  /// Declare blow-up when the state norm exceeds this multiple of the
  /// peak norm observed during the pulse.
  double blowup_factor = 1e6;
};

struct TransientResult {
  bool blew_up = false;      ///< state norm exceeded the blow-up bound
  double peak_state_norm = 0.0;
  double final_state_norm = 0.0;
  /// Total incident / reflected wave energy at the ports (trapezoidal
  /// accumulation of |a|^2 and |b|^2); a passive model in a passive
  /// termination cannot sustain reflected_energy > incident_energy.
  double incident_energy = 0.0;
  double reflected_energy = 0.0;
  std::size_t steps_run = 0;
};

/// Open-loop (matched termination) energy-gain measurement: drive the
/// incident waves with a windowed sinusoid a(t) = Re(v e^{jwt}) and
/// integrate reflected vs incident energy.  For v equal to the right
/// singular vector of H(jw) the measured gain converges (long windows)
/// to sigma(H(jw))^2 — the time-domain face of the frequency-domain
/// passivity test, used to cross-validate the Hamiltonian
/// characterization.
struct EnergyGainOptions {
  double omega = 1.0;              ///< drive frequency (rad/s)
  la::ComplexVector port_vector;   ///< complex p-vector (defaults e_0)
  std::size_t cycles = 200;        ///< sinusoid cycles to integrate
  std::size_t steps_per_cycle = 64;
  double ramp_fraction = 0.1;      ///< raised-cosine turn-on fraction
};

struct EnergyGainResult {
  double incident_energy = 0.0;
  double reflected_energy = 0.0;
  /// reflected / incident — compare with sigma(H(jw))^2.
  double gain = 0.0;
};

namespace detail {

using la::RealMatrix;
using la::RealVector;
using macromodel::SimoRealization;


inline constexpr double kPi = 3.14159265358979323846;

// Real block-diagonal solve y = (I - h A)^{-1} x, O(n).
inline void solve_identity_minus_ha(const SimoRealization& r, double h,
                             std::span<const double> x,
                             std::span<double> y) {
  for (const auto& blk : r.blocks()) {
    if (blk.is_pair) {
      const double g = 1.0 - h * blk.alpha;
      const double hb = h * blk.beta;
      const double det = g * g + hb * hb;
      const double x1 = x[blk.state], x2 = x[blk.state + 1];
      // (I - hA) = [[g, -hb], [hb, g]]
      y[blk.state] = (g * x1 + hb * x2) / det;
      y[blk.state + 1] = (-hb * x1 + g * x2) / det;
    } else {
      y[blk.state] = x[blk.state] / (1.0 - h * blk.alpha);
    }
  }
}

// Real C x on double vectors.
inline void apply_c_real(const SimoRealization& r, std::span<const double> x,
                  std::span<double> y) {
  const std::size_t p = r.ports(), n = r.order();
  for (std::size_t i = 0; i < p; ++i) {
    const double* row = r.c().row_ptr(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += row[j] * x[j];
    y[i] = acc;
  }
}

// Shared trapezoidal core for the closed loop
//   dx/dt = A x + B a,  b = C x + D a,  a = Gamma b + c(t),
// Gamma = diag(gammas).  `source` fills c(t).
inline TransientResult run_trapezoidal(
    const SimoRealization& r, const RealVector& gammas, double dt,
    std::size_t steps, double blowup_factor, double pulse_span,
    const std::function<void(double, std::span<double>)>& source) {
  const std::size_t n = r.order(), p = r.ports();
  const double h = 0.5 * dt;

  // W = (I - Gamma D)^{-1}.
  RealMatrix iw = RealMatrix::identity(p);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      iw(i, j) -= gammas[i] * r.d()(i, j);
    }
  }
  const la::LuFactorization<double> w_lu(iw);

  // SMW pieces for (I - hA - h B W Gamma C)^{-1}:
  //   P^{-1}B (n x p) and K = I - h (W Gamma C) P^{-1} B (p x p).
  RealMatrix pinv_b(n, p);
  {
    RealVector col(n), sol(n);
    for (std::size_t j = 0; j < p; ++j) {
      std::fill(col.begin(), col.end(), 0.0);
      for (const auto& blk : r.blocks()) {
        if (blk.column == j) col[blk.state] = 1.0;
      }
      solve_identity_minus_ha(r, h, col, sol);
      for (std::size_t i = 0; i < n; ++i) pinv_b(i, j) = sol[i];
    }
  }
  RealMatrix k = RealMatrix::identity(p);
  {
    // (W Gamma C) P^{-1} B column by column.
    RealVector tmp(n), cy(p);
    for (std::size_t j = 0; j < p; ++j) {
      for (std::size_t i = 0; i < n; ++i) tmp[i] = pinv_b(i, j);
      apply_c_real(r, tmp, cy);
      for (std::size_t i = 0; i < p; ++i) cy[i] *= gammas[i];
      const auto wcy = w_lu.solve(cy);
      for (std::size_t i = 0; i < p; ++i) k(i, j) -= h * wcy[i];
    }
  }
  const la::LuFactorization<double> k_lu(k);

  // Wave extraction at state x with source c: a = W(Gamma C x + c).
  RealVector cx(p), a(p), b(p), c(p);
  auto waves = [&](std::span<const double> x) {
    apply_c_real(r, x, cx);
    RealVector rhs(p);
    for (std::size_t i = 0; i < p; ++i) rhs[i] = gammas[i] * cx[i] + c[i];
    a = w_lu.solve(rhs);
    for (std::size_t i = 0; i < p; ++i) {
      double acc = cx[i];
      const double* drow = r.d().row_ptr(i);
      for (std::size_t j = 0; j < p; ++j) acc += drow[j] * a[j];
      b[i] = acc;
    }
  };

  // f(x, c) = A x + B a.
  RealVector ax(n), ba(n);
  auto rhs_field = [&](std::span<const double> x, RealVector& out) {
    waves(x);
    apply_a<double>(r, x, ax);
    apply_b<double>(r, a, ba);
    for (std::size_t i = 0; i < n; ++i) out[i] = ax[i] + ba[i];
  };

  TransientResult res;
  RealVector x(n, 0.0), fx(n), rhs(n), t0(n), y(n), q(p), z(p), corr(n);
  double pulse_peak_norm = 1e-30;

  for (std::size_t step = 0; step < steps; ++step) {
    const double t = static_cast<double>(step) * dt;
    // Energy bookkeeping with the current waves.
    source(t, c);
    waves(x);
    res.incident_energy += dt * la::dot<double>(a, a);
    res.reflected_energy += dt * la::dot<double>(b, b);

    // Trapezoidal right-hand side: x + h f(x, c(t)) + h B_hat c(t+dt).
    rhs_field(x, fx);
    for (std::size_t i = 0; i < n; ++i) rhs[i] = x[i] + h * fx[i];
    source(t + dt, c);
    {
      // B_hat c = B W c.
      const auto wc = w_lu.solve(c);
      apply_b<double>(r, wc, ba);
      for (std::size_t i = 0; i < n; ++i) rhs[i] += h * ba[i];
    }

    // x_{k+1} = SMW solve of (I - hA - h B W Gamma C) x = rhs.
    solve_identity_minus_ha(r, h, rhs, t0);
    apply_c_real(r, t0, cx);
    for (std::size_t i = 0; i < p; ++i) cx[i] *= gammas[i];
    const auto wcx = w_lu.solve(cx);
    for (std::size_t i = 0; i < p; ++i) q[i] = wcx[i];
    const auto zz = k_lu.solve(q);
    RealVector bz(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      const double* row = pinv_b.row_ptr(i);
      for (std::size_t j = 0; j < p; ++j) acc += row[j] * zz[j];
      bz[i] = acc;
    }
    for (std::size_t i = 0; i < n; ++i) x[i] = t0[i] + h * bz[i];

    const double norm = la::nrm2<double>(x);
    res.peak_state_norm = std::max(res.peak_state_norm, norm);
    if (t <= pulse_span) pulse_peak_norm = std::max(pulse_peak_norm, norm);
    res.steps_run = step + 1;
    if (norm > blowup_factor * pulse_peak_norm) {
      res.blew_up = true;
      break;
    }
  }
  res.final_state_norm = la::nrm2<double>(x);
  return res;
}

}  // namespace detail

/// Simulate the resistively-terminated macromodel driven by one pulse.
/// O(steps * n * p) using the structured realization.
inline TransientResult simulate_terminated(
    const macromodel::SimoRealization& realization,
    const TransientOptions& opt) {
  util::check(opt.dt > 0.0 && opt.steps > 0,
              "simulate_terminated: invalid time grid");
  util::check(opt.pulse_width > 0.0,
              "simulate_terminated: pulse width must be positive");
  la::RealVector gammas = opt.termination_gammas;
  if (gammas.empty()) {
    gammas.assign(realization.ports(), opt.termination_gamma);
  }
  util::check(gammas.size() == realization.ports(),
              "simulate_terminated: one reflection coefficient per port");
  for (double g : gammas) {
    util::check(std::abs(g) <= 1.0,
                "simulate_terminated: |gamma| <= 1 required (passive load)");
  }

  const double tw = opt.pulse_width;
  auto source = [&](double t, std::span<double> c) {
    std::fill(c.begin(), c.end(), 0.0);
    if (t < tw) c[0] = 0.5 * (1.0 - std::cos(2.0 * detail::kPi * t / tw));
  };
  return detail::run_trapezoidal(realization, gammas, opt.dt, opt.steps,
                                 opt.blowup_factor, tw, source);
}

inline EnergyGainResult measure_energy_gain(
    const macromodel::SimoRealization& realization,
    const EnergyGainOptions& opt) {
  util::check(opt.omega > 0.0, "measure_energy_gain: omega must be > 0");
  util::check(opt.cycles >= 2 && opt.steps_per_cycle >= 16,
              "measure_energy_gain: need >= 2 cycles, >= 16 steps/cycle");
  const std::size_t p = realization.ports();
  la::ComplexVector v = opt.port_vector;
  if (v.empty()) {
    v.assign(p, la::Complex{});
    v[0] = la::Complex(1.0, 0.0);
  }
  util::check(v.size() == p, "measure_energy_gain: port vector size");

  const double period = 2.0 * detail::kPi / opt.omega;
  const double dt = period / static_cast<double>(opt.steps_per_cycle);
  const std::size_t steps = opt.cycles * opt.steps_per_cycle;
  const double ramp = opt.ramp_fraction * static_cast<double>(steps) * dt;

  auto source = [&](double t, std::span<double> c) {
    double window = 1.0;
    if (t < ramp) window = 0.5 * (1.0 - std::cos(detail::kPi * t / ramp));
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = window *
             (v[i] * std::exp(la::Complex(0.0, opt.omega * t))).real();
    }
  };
  // gamma = 0: matched loads, a == c.
  const la::RealVector matched(p, 0.0);
  const TransientResult tr = detail::run_trapezoidal(
      realization, matched, dt, steps, 1e30, ramp, source);

  EnergyGainResult res;
  res.incident_energy = tr.incident_energy;
  res.reflected_energy = tr.reflected_energy;
  res.gain = tr.incident_energy > 0.0
                 ? tr.reflected_energy / tr.incident_energy
                 : 0.0;
  return res;
}

}  // namespace phes::test
