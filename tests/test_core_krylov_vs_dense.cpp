// Krylov vs dense property test above core::kDenseMaxOrder.
//
// core::solve sends models of order <= kDenseMaxOrder to the dense
// route, where DenseRoute (test_core_solver) checks the two solvers
// against each other.  Above that order production runs the Krylov
// solver alone.  Here a seeded set of make_synthetic_model cases at
// orders 200-400, 2-16 ports and peak gains just below, just above and
// well above 1 is solved by both: the Krylov crossing set Omega at 1
// and at 4 threads must equal core::solve_dense's within DenseRoute's
// 1e-5 * scale, with the same verdict.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

struct KrylovCase {
  std::uint64_t seed;
  std::size_t order;
  std::size_t ports;
  double peak;
};

void PrintTo(const KrylovCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", order " << c.order << ", " << c.ports
      << " ports, peak gain " << c.peak;
}

// Every port count and peak gain pairs with a spread of orders; one
// case sits at order 400, the rest below 350 to bound the dense solves'
// O(n^3) cost.
std::vector<KrylovCase> krylov_cases() {
  return {{5101, 200, 2, 0.999}, {5102, 400, 16, 1.02},
          {5103, 240, 4, 1.1},   {5104, 300, 8, 0.999},
          {5105, 220, 3, 1.02},  {5106, 260, 16, 1.1},
          {5107, 340, 2, 1.02},  {5108, 210, 8, 1.1},
          {5109, 280, 4, 0.999}, {5110, 230, 16, 1.02}};
}

class KrylovVsDense : public ::testing::TestWithParam<KrylovCase> {};

TEST_P(KrylovVsDense, OmegaMatchesDenseAtOneAndFourThreads) {
  const KrylovCase c = GetParam();
  SCOPED_TRACE(::testing::PrintToString(c));
  ASSERT_GT(c.order, core::kDenseMaxOrder);
  const auto model = test::synthetic_model(c.peak, c.seed, c.order, c.ports);
  const macromodel::SimoRealization simo(model);

  const core::SolverResult dense = core::solve_dense(simo);
  const double scale = std::max(model.max_pole_magnitude(), dense.omega_max);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::SolverOptions opt;
    opt.threads = threads;
    const core::SolverResult krylov =
        core::ParallelHamiltonianEigensolver(simo).solve(opt);
    ASSERT_FALSE(krylov.dense);
    EXPECT_TRUE(test::frequencies_match(dense.crossings, krylov.crossings,
                                        1e-5 * scale))
        << threads << " thread(s): dense found " << dense.crossings.size()
        << " crossings, Krylov " << krylov.crossings.size();
    EXPECT_EQ(dense.passive, krylov.passive) << threads << " thread(s)";
  }
}

INSTANTIATE_TEST_SUITE_P(SeededModels, KrylovVsDense,
                         ::testing::ValuesIn(krylov_cases()));

}  // namespace
}  // namespace phes
