// Ablation B — cost of one shift-and-invert application (paper Sec. III).
//
// The paper's enabling observation: via the Sherman-Morrison-Woodbury
// form (Eq. 6) the operator (M - theta I)^{-1} applies in O(n p) on the
// structured realization, vs O(n^2) for an explicit dense matvec and
// O(n^3) for a dense factor-and-solve.  This harness times, at p = 20:
//
//   - smw_apply        SmwShiftInvertOp::apply, n = 250..4000;
//   - implicit_matvec  ImplicitHamiltonianOp::apply, n = 250..4000;
//   - dense_lu_solve   LU factor + solve of the explicit 2n x 2n
//                      (M - theta I), n = 250/500 (O(n^3));
//   - smw_setup        per-shift SMW setup (two transfer evaluations
//                      and a 2p x 2p LU), n = 250/1000/4000.
//
// Each point is one untimed warm-up call, then the best of five
// batches; a batch repeats the kernel until it has run for about
// 10 ms, so microsecond applies are not timer noise.  One `BENCH` JSON
// line per kernel and size, with the per-call time.
//
//   ./build/ablation_shift_invert

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>

#include "phes/hamiltonian/dense.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/la/lu.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/rng.hpp"
#include "phes/util/table.hpp"
#include "phes/util/timer.hpp"

namespace {

using namespace phes;

constexpr std::size_t kPorts = 20;
const la::Complex kShift(0.0, 10.0);

struct Setup {
  macromodel::SimoRealization realization;
  la::ComplexVector x;

  explicit Setup(std::size_t n)
      : realization(make_model(n)), x(2 * n) {
    util::Rng rng(1);
    for (auto& v : x) v = la::Complex(rng.normal(), rng.normal());
  }

  static macromodel::PoleResidueModel make_model(std::size_t n) {
    macromodel::SyntheticModelSpec spec;
    spec.states = n;
    spec.ports = kPorts;
    spec.omega_min = 1.0;
    spec.omega_max = 100.0;
    spec.target_peak_gain = 1.05;
    spec.seed = 5;
    spec.gain_tuning_grid = 32;
    return macromodel::make_synthetic_model(spec);
  }
};

/// Per-call seconds of `body`: one untimed warm-up call, then the best
/// of `reps` batches of calls, each batch sized to run about 10 ms.
template <typename F>
double best_per_call(int reps, F&& body) {
  util::WallTimer warm;
  body();
  const double first = std::max(warm.seconds(), 1e-9);
  const std::size_t calls =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.01 / first));
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::WallTimer t;
    for (std::size_t c = 0; c < calls; ++c) body();
    best = std::min(best, t.seconds() / static_cast<double>(calls));
  }
  return best;
}

// Results are folded into this sink so no timed call can be elided.
volatile double g_sink = 0.0;

}  // namespace

int main() {
  std::map<std::size_t, Setup> setups;
  const auto setup_for = [&](std::size_t n) -> Setup& {
    return setups.try_emplace(n, n).first->second;
  };

  util::Table table({"kernel", "n", "per call [us]"});
  const auto report = [&](const char* kernel, std::size_t n, double sec) {
    std::printf(
        "BENCH {\"bench\":\"shift_invert\",\"kernel\":\"%s\",\"ports\":%zu,"
        "\"order\":%zu,\"seconds\":%.9f}\n",
        kernel, kPorts, n, sec);
    std::fflush(stdout);
    table.add_row(
        {kernel, std::to_string(n), util::format_double(1e6 * sec, 3)});
  };

  for (std::size_t n : {250, 500, 1000, 2000, 4000}) {
    Setup& s = setup_for(n);
    const hamiltonian::SmwShiftInvertOp op(s.realization, kShift);
    la::ComplexVector y(op.dim());
    report("smw_apply", n, best_per_call(5, [&] {
             op.apply(s.x, y);
             g_sink = g_sink + y[0].real();
           }));
  }

  for (std::size_t n : {250, 500, 1000, 2000, 4000}) {
    Setup& s = setup_for(n);
    const hamiltonian::ImplicitHamiltonianOp op(s.realization);
    la::ComplexVector y(op.dim());
    report("implicit_matvec", n, best_per_call(5, [&] {
             op.apply(s.x, y);
             g_sink = g_sink + y[0].real();
           }));
  }

  for (std::size_t n : {250, 500}) {
    Setup& s = setup_for(n);
    const la::RealMatrix m =
        hamiltonian::build_scattering_hamiltonian(s.realization.to_dense());
    la::ComplexMatrix shifted = la::to_complex(m);
    for (std::size_t i = 0; i < shifted.rows(); ++i) shifted(i, i) -= kShift;
    report("dense_lu_solve", n, best_per_call(5, [&] {
             la::LuFactorization<la::Complex> lu(shifted);
             const auto y = lu.solve(s.x);
             g_sink = g_sink + y[0].real();
           }));
  }

  for (std::size_t n : {250, 1000, 4000}) {
    Setup& s = setup_for(n);
    report("smw_setup", n, best_per_call(5, [&] {
             const hamiltonian::SmwShiftInvertOp op(s.realization, kShift);
             g_sink = g_sink + static_cast<double>(op.dim());
           }));
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: smw_apply and implicit_matvec grow ~2x per "
      "doubling of n (O(n p)); dense_lu_solve grows ~8x (O(n^3)).\n");
  return 0;
}
