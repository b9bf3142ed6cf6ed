// Engine subsystem tests: the SolverSession contract — a cold solve
// bit-identical to the classic API, before and after a residue update,
// and the dense route for small models — plus the session's one-entry
// result memo on both routes: a same-revision re-solve is served with
// the stored product's bits and zero work, and a residue update
// recomputes.

#include <gtest/gtest.h>

#include <cstring>

#include "phes/core/solver.hpp"
#include "phes/engine/session.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using engine::SolverSession;
using macromodel::SimoRealization;

// Shared seeded-model fixture (tests/test_support.hpp).
macromodel::PoleResidueModel make_model(double peak, std::uint64_t seed,
                                        std::size_t states = 36,
                                        std::size_t ports = 3) {
  return test::synthetic_model(peak, seed, states, ports);
}

// Models of this order sit above engine::kDenseMaxOrder: the session
// sends them through the Krylov solver.
constexpr std::size_t kKrylovOrder = engine::kDenseMaxOrder + 8;

bool same_bits(const core::SolverResult& a, const core::SolverResult& b) {
  const auto bits_equal = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return bits_equal(a.crossings, b.crossings) &&
         bits_equal(a.eigenvalues, b.eigenvalues) &&
         a.passive == b.passive && a.dense == b.dense &&
         a.disks.size() == b.disks.size() &&
         std::memcmp(&a.omega_min, &b.omega_min, sizeof(double)) == 0 &&
         std::memcmp(&a.omega_max, &b.omega_max, sizeof(double)) == 0;
}

// ---- SolverSession ----------------------------------------------------

TEST(Session, ColdSolveMatchesClassicApiBitForBit) {
  const auto model = make_model(1.07, 20, kKrylovOrder);
  SimoRealization simo(model);
  core::SolverOptions opt;
  opt.threads = 1;
  SolverSession session{SimoRealization(simo)};

  // Once on the model as given, once after a residue update: the
  // session's solve is the classic solver's on the same realization.
  for (int revision = 0; revision < 2; ++revision) {
    if (revision == 1) {
      la::RealMatrix c = simo.c();
      c *= 0.995;  // what one enforcement step does
      simo.c() = c;
      session.update_residues(c);
    }
    const auto classic =
        core::ParallelHamiltonianEigensolver(simo).solve(opt);
    const auto report = passivity::characterize_passivity(session, opt);

    EXPECT_TRUE(same_bits(report.solver, classic)) << "revision " << revision;
    EXPECT_EQ(report.solver.total_matvecs, classic.total_matvecs);
    EXPECT_EQ(report.solver.shifts_processed, classic.shifts_processed);
    EXPECT_EQ(report.solver.factorizations, classic.factorizations);
  }
  EXPECT_EQ(session.stats().reuses, 0u);
}

TEST(Session, SmallModelTakesTheDenseRoute) {
  // At or below kDenseMaxOrder every solve is dense: no shifts, no
  // factorizations.  The repeat on the unchanged model is served by the
  // session's memo.
  const auto model = make_model(1.07, 20);
  ASSERT_LE(model.order(), engine::kDenseMaxOrder);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 2;
  for (int i = 0; i < 2; ++i) {
    const auto res = session.solve(opt);
    EXPECT_TRUE(res.dense);
    EXPECT_FALSE(res.passive);
    EXPECT_EQ(res.total_matvecs, 0u);
    EXPECT_EQ(res.shifts_processed, 0u);
    EXPECT_EQ(res.factorizations, 0u);
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.dense_solves, 1u);
  EXPECT_EQ(stats.reuses, 1u);
  EXPECT_EQ(stats.factorizations, 0u);
}

// ---- result memo, on both routes -----------------------------------------

/// The model order under test: the dense route's default order, or one
/// past kDenseMaxOrder for the Krylov route.
class SessionMemo : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] macromodel::PoleResidueModel model(std::uint64_t seed) const {
    return make_model(1.07, seed, GetParam());
  }
  /// What a fresh solver computes on `simo` (one Krylov thread, so the
  /// Krylov route is deterministic too).
  [[nodiscard]] static core::SolverResult cold_solve(
      const SimoRealization& simo, const core::SolverOptions& opt) {
    return simo.order() <= engine::kDenseMaxOrder
               ? core::solve_dense(simo)
               : core::ParallelHamiltonianEigensolver(simo).solve(opt);
  }
  /// Eigensolves the session ran (the rest its memo answered).
  [[nodiscard]] static std::size_t eigensolves(const SolverSession& s) {
    return s.stats().solves - s.stats().reuses;
  }
};

TEST_P(SessionMemo, SameKeyResolveIsBitIdenticalAndCountedAsReuse) {
  SolverSession session(model(20));
  core::SolverOptions opt;
  const auto first = session.solve(opt);
  ASSERT_FALSE(first.crossings.empty());
  EXPECT_EQ(eigensolves(session), 1u);
  EXPECT_EQ(session.stats().reuses, 0u);

  const auto second = session.solve(opt);
  EXPECT_TRUE(same_bits(first, second));
  EXPECT_EQ(session.stats().solves, 2u);
  EXPECT_EQ(session.stats().reuses, 1u);
  // A memo answer ran nothing.
  EXPECT_EQ(second.total_matvecs, 0u);
  EXPECT_EQ(second.lambda_max_matvecs, 0u);
  EXPECT_EQ(second.factorizations, 0u);
  EXPECT_EQ(second.shifts_processed, 0u);
  EXPECT_TRUE(second.shift_log.empty());
  // The served result is the one a cold solve computes.
  EXPECT_TRUE(same_bits(second, cold_solve(session.realization(), opt)));
}

TEST_P(SessionMemo, UpdateResiduesRecomputes) {
  SolverSession session(model(21));
  core::SolverOptions opt;
  (void)session.solve(opt);
  // Even an identical C bumps the revision: the memo never outlives it.
  const la::RealMatrix c = session.realization().c();
  session.update_residues(c);
  (void)session.solve(opt);
  EXPECT_EQ(eigensolves(session), 2u);
  EXPECT_EQ(session.stats().reuses, 0u);

  la::RealMatrix scaled = c;
  scaled *= 0.5;
  session.update_residues(scaled);
  const auto perturbed = session.solve(opt);
  EXPECT_EQ(eigensolves(session), 3u);
  EXPECT_TRUE(same_bits(perturbed, cold_solve(session.realization(), opt)));
  // The new revision is memoized in turn.
  (void)session.solve(opt);
  EXPECT_EQ(session.stats().reuses, 1u);
}

TEST_P(SessionMemo, OptionsDoNotChangeTheServedResult) {
  // The memo is keyed on the revision alone: a same-revision re-solve
  // with every option changed is served from the memo, and the served
  // bits are the first solve's.
  const SimoRealization simo(model(23));
  const core::SolverOptions base;
  const auto reference = cold_solve(simo, base);
  ASSERT_FALSE(reference.crossings.empty());

  core::SolverOptions other = base;
  other.threads = 4;
  other.seed = 99;
  other.scheduling = core::SchedulingMode::kStaticGrid;
  other.shift.krylov_dim = 20;
  other.shift.eigs_per_shift = 2;

  SolverSession session{SimoRealization(simo)};
  EXPECT_TRUE(same_bits(session.solve(base), reference));
  const auto served = session.solve(other);
  EXPECT_EQ(session.stats().reuses, 1u);
  EXPECT_TRUE(same_bits(served, reference));
}

INSTANTIATE_TEST_SUITE_P(
    Routes, SessionMemo, ::testing::Values(std::size_t{36}, kKrylovOrder),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return info.param <= engine::kDenseMaxOrder ? "Dense" : "Krylov";
    });

}  // namespace
}  // namespace phes
