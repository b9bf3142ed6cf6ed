// table1_bitdump — prints 1-thread solves of Table I cases 1 to 3
// with every double in %a (hex float), for a bit-identity A/B of the
// Krylov route between two builds.
//
// One solver thread makes the solve deterministic, so two builds whose
// kernels keep every floating-point operation in order print the same
// text.  Per case it prints the crossings, the eigenvalues, the band
// edge, every shift_log record (center, radius, eigenvalues found,
// restarts, matvecs) and the matvec totals; timings and thread ids are
// left out.  Build it against each tree's headers and library and
// compare the two outputs with cmp.  Per tree:
//
//   g++ -std=c++20 -O2 -pthread -I TREE/include -I TREE/bench
//       bench/table1_bitdump.cpp TREE/build/libphes.a -o dump
//   ./dump > TREE.txt
//
// At more than one thread the dynamic scheduler's shift order depends
// on timing, and so do shift_log and total_matvecs.
//
// `dump dense` instead prints each case's crossings from the dense
// route (core::solve_dense, a full eigendecomposition of the 2n x 2n
// Hamiltonian, about 25 s per case in Release), the truth oracle that
// tools/table1_dump_compare.py --oracle reads;
// tests/data/table1_dense_crossings.txt holds its output.

#include <cstdio>
#include <cstring>

#include "bench_support.hpp"
#include "phes/core/solver.hpp"
#include "phes/macromodel/simo_realization.hpp"

int main(int argc, char** argv) {
  using namespace phes;

  const bool dense = argc == 2 && std::strcmp(argv[1], "dense") == 0;
  if (argc > 2 || (argc == 2 && !dense)) {
    std::fprintf(stderr, "usage: %s [dense]\n", argv[0]);
    return 2;
  }
  for (const auto& c : bench::table1_cases()) {
    if (c.id > 3) break;
    const macromodel::SimoRealization realization(bench::build_case_model(c));
    if (dense) {
      const core::SolverResult r = core::solve_dense(realization);
      std::printf("case %d n %zu p %zu passive %d\n", c.id, c.n, c.p,
                  r.passive ? 1 : 0);
      std::printf("crossings %zu\n", r.crossings.size());
      for (const double w : r.crossings) std::printf("%a\n", w);
      continue;
    }
    core::SolverOptions opt;
    opt.threads = 1;
    const core::SolverResult r =
        core::ParallelHamiltonianEigensolver(realization).solve(opt);

    std::printf("case %d n %zu p %zu passive %d\n", c.id, c.n, c.p,
                r.passive ? 1 : 0);
    std::printf("crossings %zu\n", r.crossings.size());
    for (const double w : r.crossings) std::printf("%a\n", w);
    std::printf("eigenvalues %zu\n", r.eigenvalues.size());
    for (const auto& e : r.eigenvalues) {
      std::printf("%a %a\n", e.real(), e.imag());
    }
    std::printf("omega_max %a\n", r.omega_max);
    std::printf("shifts %zu eliminated %zu\n", r.shift_log.size(),
                r.shifts_eliminated);
    for (const auto& s : r.shift_log) {
      std::printf("%a %a %zu %zu %zu\n", s.center, s.radius,
                  s.eigenvalues_found, s.restarts, s.matvecs);
    }
    std::printf("total_matvecs %zu lambda_max_matvecs %zu\n",
                r.total_matvecs, r.lambda_max_matvecs);
  }
  return 0;
}
