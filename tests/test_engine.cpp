// Engine subsystem tests: the shift-factorization LRU cache (eviction
// order, revision invalidation, concurrent access) and the
// SolverSession contract — cold solves bit-identical to the classic
// API, warm re-solves finding the same crossing set cheaper, and the
// enforcement loop's re-characterizations hitting the cache — plus the
// dense route's one-entry result memo: a same-revision re-solve is
// served bit for bit, a residue update recomputes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "phes/core/solver.hpp"
#include "phes/engine/session.hpp"
#include "phes/engine/session_pool.hpp"
#include "phes/engine/shift_cache.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/characterization.hpp"
#include "phes/passivity/enforcement.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using engine::ShiftFactorizationCache;
using engine::SolverSession;
using la::Complex;
using macromodel::SimoRealization;

// Shared seeded-model fixture (tests/test_support.hpp).
macromodel::PoleResidueModel make_model(double peak, std::uint64_t seed,
                                        std::size_t states = 36,
                                        std::size_t ports = 3) {
  return test::synthetic_model(peak, seed, states, ports);
}

// The SolverSession cases below exercise the Krylov route, where the
// cache and the warm start live: their models sit above
// engine::kDenseMaxOrder, which the session solves densely instead.
constexpr std::size_t kKrylovOrder = engine::kDenseMaxOrder + 8;

ShiftFactorizationCache::OpPtr build_op(const SimoRealization& simo,
                                        Complex theta) {
  return std::make_shared<const hamiltonian::SmwShiftInvertOp>(simo, theta);
}

// ---- ShiftFactorizationCache ------------------------------------------

TEST(ShiftCache, HitsMissesAndStats) {
  const auto model = make_model(1.05, 10, 20, 2);
  const SimoRealization simo(model);
  ShiftFactorizationCache cache(8);

  const Complex t1(0.0, 1.0), t2(0.0, 2.0);
  const auto op1 = cache.acquire(0, t1, [&] { return build_op(simo, t1); });
  ASSERT_NE(op1, nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Same key: hit, same operator instance.
  const auto again = cache.acquire(0, t1, [&] { return build_op(simo, t1); });
  EXPECT_EQ(again.get(), op1.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Different shift and different revision are distinct keys.
  (void)cache.acquire(0, t2, [&] { return build_op(simo, t2); });
  (void)cache.acquire(1, t1, [&] { return build_op(simo, t1); });
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(ShiftCache, EvictsLeastRecentlyUsedFirst) {
  const auto model = make_model(1.05, 11, 20, 2);
  const SimoRealization simo(model);
  ShiftFactorizationCache cache(2);

  const Complex ta(0.0, 1.0), tb(0.0, 2.0), tc(0.0, 3.0);
  (void)cache.acquire(0, ta, [&] { return build_op(simo, ta); });
  (void)cache.acquire(0, tb, [&] { return build_op(simo, tb); });
  // Touch A so B becomes the least recently used entry.
  (void)cache.acquire(0, ta, [&] { return build_op(simo, ta); });
  // Inserting C must evict B, not A.
  (void)cache.acquire(0, tc, [&] { return build_op(simo, tc); });

  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // A and C are still cached (hits); B was evicted (a miss).
  (void)cache.acquire(0, ta, [&] { return build_op(simo, ta); });
  (void)cache.acquire(0, tc, [&] { return build_op(simo, tc); });
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
  (void)cache.acquire(0, tb, [&] { return build_op(simo, tb); });
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(ShiftCache, RevisionInvalidationDropsStaleEntries) {
  const auto model = make_model(1.05, 12, 20, 2);
  const SimoRealization simo(model);
  ShiftFactorizationCache cache(8);

  const Complex ta(0.0, 1.0), tb(0.0, 2.0);
  (void)cache.acquire(0, ta, [&] { return build_op(simo, ta); });
  (void)cache.acquire(1, tb, [&] { return build_op(simo, tb); });
  cache.invalidate_before(1);
  EXPECT_EQ(cache.stats().entries, 1u);
  // The revision-1 entry survives (a hit); revision 0 is gone (a miss).
  (void)cache.acquire(1, tb, [&] { return build_op(simo, tb); });
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.acquire(0, ta, [&] { return build_op(simo, ta); });
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ShiftCache, ConcurrentAcquireIsSafeAndCoherent) {
  const auto model = make_model(1.05, 13, 24, 2);
  const SimoRealization simo(model);
  ShiftFactorizationCache cache(64);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 200;
  std::atomic<std::size_t> builds{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        // 16 distinct shifts hammered from every thread.
        const Complex theta(0.0, 1.0 + static_cast<double>((t + i) % 16));
        const auto op = cache.acquire(0, theta, [&] {
          builds.fetch_add(1);
          return build_op(simo, theta);
        });
        ASSERT_NE(op, nullptr);
        EXPECT_EQ(op->shift(), theta);
      }
    });
  }
  for (auto& th : pool) th.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
  EXPECT_EQ(stats.entries, 16u);
  // Duplicate racing builds are allowed but every miss built at most
  // once, and hits dominate by construction.
  EXPECT_GE(builds.load(), 16u);
  EXPECT_EQ(builds.load(), stats.misses);
  EXPECT_GT(stats.hits, stats.misses);
}

// ---- SolverSession ----------------------------------------------------

TEST(Session, ColdSolveMatchesClassicApiBitForBit) {
  const auto model = make_model(1.07, 20, kKrylovOrder);
  const SimoRealization simo(model);
  core::SolverOptions opt;
  opt.threads = 1;

  const auto classic = core::ParallelHamiltonianEigensolver(simo).solve(opt);

  SolverSession session{SimoRealization(simo)};
  const auto report = passivity::characterize_passivity(session, opt);

  ASSERT_EQ(report.crossings.size(), classic.crossings.size());
  for (std::size_t i = 0; i < report.crossings.size(); ++i) {
    EXPECT_EQ(report.crossings[i], classic.crossings[i]);
  }
  EXPECT_EQ(report.solver.total_matvecs, classic.total_matvecs);
  EXPECT_EQ(report.solver.shifts_processed, classic.shifts_processed);
  EXPECT_FALSE(report.solver.warm_started);
}

TEST(Session, SameRevisionResolveIsWarmCachedAndCheaper) {
  const auto model = make_model(1.07, 21, kKrylovOrder);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;

  const auto cold = session.solve(opt);
  ASSERT_FALSE(cold.warm_started);
  ASSERT_GT(cold.factorizations, 0u);
  ASSERT_GT(cold.lambda_max_matvecs, 0u);

  const auto warm = session.solve(opt);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GT(warm.seeded_shifts, 0u);
  // Identical revision: the previous disk plan is re-solved and the
  // seed factorizations come out of the cache (a few fresh ones may
  // appear when a re-derived radius leaves a sliver to mop up).
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_LT(warm.factorizations, cold.factorizations);
  EXPECT_EQ(warm.lambda_max_matvecs, 0u);
  EXPECT_LT(warm.total_matvecs, cold.total_matvecs);

  const double tol = 1e-5 * model.max_pole_magnitude();
  EXPECT_TRUE(test::frequencies_match(warm.crossings, cold.crossings, tol));
}

class SessionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SessionEquivalence, WarmResolveFindsSameOmegaAsColdSolve) {
  // Acceptance: on seeded non-passive models, the session-reused solve
  // after a residue perturbation finds the same crossing set (to
  // tolerance) as a from-scratch cold solve of the perturbed model.
  const auto model = make_model(1.05 + 0.01 * GetParam(), 30 + GetParam(),
                                kKrylovOrder);
  const SimoRealization simo(model);
  const double tol = 1e-5 * model.max_pole_magnitude();
  core::SolverOptions opt;
  opt.threads = 2;

  SolverSession session{SimoRealization(simo)};
  const auto before = session.solve(opt);
  ASSERT_FALSE(before.passive);

  // Small residue perturbation (what one enforcement step does).
  SimoRealization perturbed(simo);
  la::RealMatrix c = perturbed.c();
  c *= 0.995;
  perturbed.c() = c;
  session.update_residues(c);

  const auto warm = session.solve(opt);
  EXPECT_TRUE(warm.warm_started);

  SolverSession cold_session{SimoRealization(perturbed)};
  const auto cold = cold_session.solve(opt);
  EXPECT_TRUE(test::frequencies_match(warm.crossings, cold.crossings, tol))
      << "warm found " << warm.crossings.size() << " vs cold "
      << cold.crossings.size();
}

INSTANTIATE_TEST_SUITE_P(Models, SessionEquivalence, ::testing::Range(0, 3));

TEST(Session, UpdateResiduesBumpsRevisionAndInvalidates) {
  const auto model = make_model(1.06, 40, kKrylovOrder, 2);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;
  (void)session.solve(opt);
  ASSERT_GT(session.stats().cache.entries, 0u);
  ASSERT_EQ(session.revision(), 0u);

  la::RealMatrix c = session.realization().c();
  c *= 0.99;
  session.update_residues(c);
  EXPECT_EQ(session.revision(), 1u);
  EXPECT_EQ(session.stats().cache.entries, 0u);  // stale ops purged
  // The warm-start record survives the revision bump: the next solve
  // consumes it.
  EXPECT_TRUE(session.solve(opt).warm_started);
  EXPECT_EQ(session.stats().warm_solves, 1u);
}

TEST(Session, LargeResidueDriftReestimatesTheBand) {
  // The band hint must not go stale: a large cumulative residue change
  // forces a fresh |lambda|max estimate instead of trusting the edge
  // recorded before the perturbations.
  const auto model = make_model(1.06, 45, kKrylovOrder, 2);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 1;
  (void)session.solve(opt);

  la::RealMatrix c = session.realization().c();
  c *= 1.5;  // far beyond the estimate's 5% safety factor
  session.update_residues(c);
  const auto warm = session.solve(opt);
  EXPECT_GT(warm.lambda_max_matvecs, 0u)
      << "stale band hint accepted after a 50% residue change";

  // Small drifts keep the hint (and skip the estimate).
  la::RealMatrix c2 = session.realization().c();
  c2 *= 1.001;
  session.update_residues(c2);
  const auto warm2 = session.solve(opt);
  EXPECT_EQ(warm2.lambda_max_matvecs, 0u);
}

TEST(Session, EnforcementRecharacterizationsHitTheCache) {
  // Acceptance criterion: on a non-passive demo model, the enforcement
  // loop's second and later characterizations report >= 1
  // factorization-cache hit and strictly fewer total matvecs than the
  // initial cold characterization.
  const auto model = make_model(1.15, 70, kKrylovOrder);
  SolverSession session(model);

  core::SolverOptions opt;
  opt.threads = 1;
  const auto result = passivity::enforce_passivity(session, opt);
  EXPECT_TRUE(result.success);
  ASSERT_GE(result.history.size(), 3u)
      << "model enforced too quickly; pick a stronger violation";

  const auto& first = result.history.front();
  EXPECT_FALSE(first.warm_started);
  EXPECT_EQ(first.cache_hits, 0u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    const auto& round = result.history[i];
    EXPECT_TRUE(round.warm_started) << "round " << i;
    EXPECT_GE(round.cache_hits, 1u) << "round " << i;
    EXPECT_LT(round.solver_matvecs, first.solver_matvecs) << "round " << i;
  }
  EXPECT_GT(result.cache_hits, 0u);
  EXPECT_EQ(result.characterizations, result.history.size());
}

TEST(Session, SmallModelTakesTheDenseRoute) {
  // At or below kDenseMaxOrder every solve is dense: no shifts, no
  // factorizations, nothing cached, no warm-start record.  The repeat
  // on the unchanged model is served by the dense-result memo.
  const auto model = make_model(1.07, 20);
  ASSERT_LE(model.order(), engine::kDenseMaxOrder);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 2;
  for (int i = 0; i < 2; ++i) {
    const auto res = session.solve(opt);
    EXPECT_TRUE(res.dense);
    EXPECT_FALSE(res.passive);
    EXPECT_FALSE(res.warm_started);
    EXPECT_EQ(res.total_matvecs, 0u);
    EXPECT_EQ(res.shifts_processed, 0u);
    EXPECT_EQ(res.factorizations, 0u);
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.solves, 2u);
  EXPECT_EQ(stats.dense_solves, 1u);
  EXPECT_EQ(stats.dense_reuses, 1u);
  EXPECT_EQ(stats.warm_solves, 0u);
  EXPECT_EQ(stats.factorizations, 0u);
  EXPECT_EQ(stats.cache.entries, 0u);
}

// ---- dense-result memo ---------------------------------------------------

bool same_bits(const core::SolverResult& a, const core::SolverResult& b) {
  const auto bits_equal = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  return bits_equal(a.crossings, b.crossings) &&
         bits_equal(a.eigenvalues, b.eigenvalues) &&
         a.passive == b.passive && a.dense == b.dense &&
         std::memcmp(&a.omega_min, &b.omega_min, sizeof(double)) == 0 &&
         std::memcmp(&a.omega_max, &b.omega_max, sizeof(double)) == 0;
}

TEST(DenseMemo, SameKeyResolveIsBitIdenticalAndCountedAsReuse) {
  const auto model = make_model(1.07, 20);
  ASSERT_LE(model.order(), engine::kDenseMaxOrder);
  SolverSession session(model);
  core::SolverOptions opt;
  const auto first = session.solve(opt);
  ASSERT_FALSE(first.crossings.empty());
  EXPECT_EQ(session.stats().dense_solves, 1u);
  EXPECT_EQ(session.stats().dense_reuses, 0u);

  const auto second = session.solve(opt);
  EXPECT_TRUE(same_bits(first, second));
  EXPECT_EQ(session.stats().solves, 2u);
  EXPECT_EQ(session.stats().dense_solves, 1u);
  EXPECT_EQ(session.stats().dense_reuses, 1u);
  // The served result is the one a cold solve computes.
  EXPECT_TRUE(same_bits(second, core::solve_dense(session.realization())));
}

TEST(DenseMemo, UpdateResiduesRecomputes) {
  const auto model = make_model(1.07, 21);
  SolverSession session(model);
  core::SolverOptions opt;
  (void)session.solve(opt);
  // Even an identical C bumps the revision: the memo never outlives it.
  const la::RealMatrix c = session.realization().c();
  session.update_residues(c);
  (void)session.solve(opt);
  EXPECT_EQ(session.stats().dense_solves, 2u);
  EXPECT_EQ(session.stats().dense_reuses, 0u);

  la::RealMatrix scaled = c;
  scaled *= 0.5;
  session.update_residues(scaled);
  const auto perturbed = session.solve(opt);
  EXPECT_EQ(session.stats().dense_solves, 3u);
  EXPECT_TRUE(
      same_bits(perturbed, core::solve_dense(session.realization())));
  // The new revision is memoized in turn.
  (void)session.solve(opt);
  EXPECT_EQ(session.stats().dense_reuses, 1u);
}

TEST(DenseMemo, NonKeyFieldsDoNotChangeTheDenseResult) {
  // solve_dense reads no solver option: a same-revision re-solve with
  // every remaining field changed is served from the memo, and the
  // served bits are the cold dense result.
  const auto model = make_model(1.07, 23);
  const SimoRealization simo(model);
  const auto reference = core::solve_dense(simo);
  ASSERT_FALSE(reference.crossings.empty());

  const core::SolverOptions base;
  core::SolverOptions other = base;
  other.threads = 4;
  other.seed = 99;
  other.scheduling = core::SchedulingMode::kStaticGrid;
  other.shift.krylov_dim = 20;
  other.shift.eigs_per_shift = 2;

  SolverSession session{SimoRealization(simo)};
  EXPECT_TRUE(same_bits(session.solve(base), reference));
  const auto served = session.solve(other);
  EXPECT_EQ(session.stats().dense_reuses, 1u);
  EXPECT_TRUE(same_bits(served, reference));
}

TEST(DenseMemo, KrylovOrderSessionNeverReuses) {
  const auto model = make_model(1.07, 24, kKrylovOrder);
  ASSERT_GT(model.order(), engine::kDenseMaxOrder);
  SolverSession session(model);
  core::SolverOptions opt;
  opt.threads = 2;
  const auto first = session.solve(opt);
  const auto second = session.solve(opt);
  EXPECT_FALSE(first.dense);
  EXPECT_FALSE(second.dense);
  // The same-revision re-solve is a genuine second certificate.
  EXPECT_GT(second.total_matvecs, 0u);
  EXPECT_EQ(session.stats().solves, 2u);
  EXPECT_EQ(session.stats().dense_solves, 0u);
  EXPECT_EQ(session.stats().dense_reuses, 0u);
}

TEST(DenseMemo, PerturbedSessionIsDroppedAndUnchangedReturnHits) {
  const auto model = make_model(1.07, 25);
  const SimoRealization pristine(model);
  engine::SessionPool pool;
  core::SolverOptions opt;
  core::SolverResult cold;
  {
    auto lease = pool.checkout(SimoRealization(pristine));
    cold = lease.session().solve(opt);
  }
  {
    // Unchanged model back out of the pool: the memo serves it.
    auto lease = pool.checkout(SimoRealization(pristine));
    ASSERT_TRUE(lease.reused());
    const auto before = lease.session().stats();
    EXPECT_TRUE(same_bits(lease.session().solve(opt), cold));
    EXPECT_EQ(lease.session().stats().dense_reuses, before.dense_reuses + 1);
    // Perturb the residues the way enforcement would.
    la::RealMatrix c = lease.session().realization().c();
    c *= 0.9;
    lease.session().update_residues(c);
    (void)lease.session().solve(opt);
  }
  // The perturbed session was dropped, not pooled.
  EXPECT_EQ(pool.stats().returns, 2u);
  EXPECT_EQ(pool.stats().idle_sessions, 0u);
  auto lease = pool.checkout(SimoRealization(pristine));
  EXPECT_FALSE(lease.reused());
  EXPECT_EQ(lease.session().revision(), 0u);
  const auto fresh = lease.session().solve(opt);
  // A fresh session: recomputed, and the same bits as the pristine
  // model's first solve.
  EXPECT_EQ(lease.session().stats().dense_solves, 1u);
  EXPECT_EQ(lease.session().stats().dense_reuses, 0u);
  EXPECT_TRUE(same_bits(fresh, cold));
}

}  // namespace
}  // namespace phes
