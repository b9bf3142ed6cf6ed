// Ablation C — full dense eigensolution vs selective Krylov extraction
// (paper Sec. III), and the dense/Krylov crossover behind
// engine::kDenseMaxOrder.
//
// "a standard full eigensolution scales as the third power of the
// problem size. This fact prevents an efficient characterization for
// large-size macromodels."  This harness times the production dense
// route (core::solve_dense: the explicit 2n x 2n Hamiltonian, Francis
// QR on all of it, the solver's own crossing filter) against cold
// multi-shift Krylov solves at 1 and 4 threads, over orders 24..384 at
// p = 4 and p = 16.  Each (order, ports) point is a warm-up plus the
// best of three runs per route, and the three crossing sets must
// agree.  One `BENCH` JSON line per point; exit 1 on any disagreement.
//
//   ./build/ablation_full_vs_selective

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>

#include "phes/core/solver.hpp"
#include "phes/engine/session.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/table.hpp"
#include "phes/util/timer.hpp"
#include "test_support.hpp"

namespace {

using namespace phes;

/// Warm-up, then the best wall time of `runs` calls; `last` keeps the
/// final result for the cross-check.
double best_of(int runs, const std::function<core::SolverResult()>& solve,
               core::SolverResult& last) {
  last = solve();
  double best = 1e300;
  for (int r = 0; r < runs; ++r) {
    util::WallTimer t;
    last = solve();
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main() {
  util::Table table({"p", "n", "dense [ms]", "Krylov 1T [ms]",
                     "Krylov 4T [ms]", "Omega", "agree"});
  int disagreements = 0;

  for (std::size_t ports : {4, 16}) {
    for (std::size_t n : {24, 48, 96, 144, 192, 256, 384}) {
      if (n < 2 * ports) continue;  // the generator needs 2 states/port
      macromodel::SyntheticModelSpec spec;
      spec.states = n;
      spec.ports = ports;
      spec.omega_min = 1.0;
      spec.omega_max = 60.0;
      spec.target_peak_gain = 1.07;
      spec.seed = 21;
      spec.gain_tuning_grid = 48;
      const auto model = macromodel::make_synthetic_model(spec);
      const macromodel::SimoRealization realization(model);

      core::SolverOptions opt;
      opt.seed = 13;
      core::SolverResult dense, one, four;
      const double dense_s = best_of(
          3, [&] { return core::solve_dense(realization); }, dense);
      const core::ParallelHamiltonianEigensolver solver(realization);
      opt.threads = 1;
      const double one_s =
          best_of(3, [&] { return solver.solve(opt); }, one);
      opt.threads = 4;
      const double four_s =
          best_of(3, [&] { return solver.solve(opt); }, four);

      const double tol = 1e-5 * std::max(model.max_pole_magnitude(),
                                         dense.omega_max);
      const bool agree =
          test::frequencies_match(dense.crossings, one.crossings, tol) &&
          test::frequencies_match(dense.crossings, four.crossings, tol);
      if (!agree) ++disagreements;

      table.add_row({std::to_string(ports), std::to_string(n),
                     util::format_double(1e3 * dense_s, 3),
                     util::format_double(1e3 * one_s, 3),
                     util::format_double(1e3 * four_s, 3),
                     std::to_string(dense.crossings.size()) + "/" +
                         std::to_string(one.crossings.size()) + "/" +
                         std::to_string(four.crossings.size()),
                     agree ? "yes" : "NO"});
      std::printf(
          "BENCH {\"bench\":\"dense_vs_krylov\",\"ports\":%zu,\"order\":%zu,"
          "\"dense_seconds\":%.6f,\"krylov_1t_seconds\":%.6f,"
          "\"krylov_4t_seconds\":%.6f,\"crossings_dense\":%zu,"
          "\"crossings_krylov_1t\":%zu,\"crossings_krylov_4t\":%zu,"
          "\"agree\":%s,\"dense_route\":%s}\n",
          ports, n, dense_s, one_s, four_s, dense.crossings.size(),
          one.crossings.size(), four.crossings.size(),
          agree ? "true" : "false",
          n <= engine::kDenseMaxOrder ? "true" : "false");
      std::fflush(stdout);
    }
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: the dense route grows ~8x per doubling of "
      "n (O(n^3)) while the selective solver grows roughly linearly;\n"
      "SolverSession sends orders <= kDenseMaxOrder = %zu through the "
      "dense route.\n",
      engine::kDenseMaxOrder);
  return disagreements == 0 ? 0 : 1;
}
