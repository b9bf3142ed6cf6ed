// Deterministic unit tests for the shift-queue state machine
// (paper Sec. IV rules, Figs. 2-5).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "phes/core/intervals.hpp"
#include "phes/la/types.hpp"
#include "phes/util/rng.hpp"

namespace phes {
namespace {

using core::CompletedDisk;
using core::IntervalScheduler;
using core::merge_disk_eigenvalues;
using core::TentativeInterval;

TEST(Intervals, StartupOrderProcessesExtremaFirst) {
  // Paper Eqs. 13-15: theta^_1 = theta~_1, theta^_2 = theta~_N.
  IntervalScheduler s(8.0, 4, 1e-9);
  const auto t1 = s.acquire();
  const auto t2 = s.acquire();
  ASSERT_TRUE(t1 && t2);
  EXPECT_DOUBLE_EQ(t1->shift, 0.0);  // left extremum, shift at band edge
  EXPECT_DOUBLE_EQ(t2->shift, 8.0);  // right extremum
  // Interior shifts are centered.
  const auto t3 = s.acquire();
  ASSERT_TRUE(t3);
  EXPECT_DOUBLE_EQ(t3->shift, 3.0);  // interval [2,4] centered
}

TEST(Intervals, CoverRuleRetiresInterval) {
  IntervalScheduler s(4.0, 2, 1e-9);
  auto t1 = s.acquire();  // [0,2], shift 0
  ASSERT_TRUE(t1);
  // A disk of radius 2.5 around shift 0 covers [0,2] fully and swallows
  // the tentative shift of [2,4] (at 4? no: N=2 => second interval is
  // the right extremum with shift 4, not swallowed by [-2.5, 2.5]).
  s.complete(*t1, 2.5, {});
  EXPECT_EQ(s.shifts_eliminated(), 0u);
  auto t2 = s.acquire();
  ASSERT_TRUE(t2);
  EXPECT_DOUBLE_EQ(t2->shift, 4.0);
  EXPECT_FALSE(s.acquire());  // [2,4] was the one tentative interval left
  // Its interval was partially covered; remaining is [2.5, 4].
  EXPECT_NEAR(t2->lo, 2.5, 1e-12);
  s.complete(*t2, 1.6, {});
  EXPECT_TRUE(s.done());
}

TEST(Intervals, SwallowedTentativeShiftsAreEliminated) {
  IntervalScheduler s(10.0, 5, 1e-9);
  auto t1 = s.acquire();  // [0,2] shift 0
  ASSERT_TRUE(t1);
  // Huge disk covering [0, 10]: all remaining tentative shifts die.
  s.complete(*t1, 10.5, {});
  EXPECT_TRUE(s.done());
  EXPECT_EQ(s.shifts_eliminated(), 4u);
}

TEST(Intervals, SplitRuleSpawnsCenteredShifts) {
  // Paper Eqs. 25-28 and Fig. 5.
  IntervalScheduler s(8.0, 2, 1e-9);
  auto t1 = s.acquire();        // [0,4], shift 0
  ASSERT_TRUE(t1);
  s.complete(*t1, 0.5, {});     // covers [0, 0.5] only
  // Remaining [0.5, 4] must be re-queued with a centered shift.
  auto t2 = s.acquire();        // right extremum [4,8] shift 8 queued 2nd
  ASSERT_TRUE(t2);
  EXPECT_DOUBLE_EQ(t2->shift, 8.0);
  auto t3 = s.acquire();
  ASSERT_TRUE(t3);
  EXPECT_NEAR(t3->lo, 0.5, 1e-12);
  EXPECT_NEAR(t3->hi, 4.0, 1e-12);
  EXPECT_NEAR(t3->shift, 2.25, 1e-12);

  // Interior split: complete t3 with a small centered disk.
  s.complete(*t2, 4.1, {});     // retire [4,8]
  s.complete(*t3, 0.25, {});    // covers [2.0, 2.5]; spawns two portions
  std::vector<double> los, his;
  std::vector<TentativeInterval> drained;
  while (auto t = s.acquire()) {
    los.push_back(t->lo);
    his.push_back(t->hi);
    drained.push_back(*t);  // acquire all before completing: a huge
                            // completion disk would swallow the rest
  }
  for (const auto& t : drained) s.complete(t, 10.0, {});
  ASSERT_EQ(los.size(), 2u);
  std::sort(los.begin(), los.end());
  std::sort(his.begin(), his.end());
  EXPECT_NEAR(los[0], 0.5, 1e-12);
  EXPECT_NEAR(his[0], 2.0, 1e-12);
  EXPECT_NEAR(los[1], 2.5, 1e-12);
  EXPECT_NEAR(his[1], 4.0, 1e-12);
  EXPECT_TRUE(s.done());
}

TEST(Intervals, TinyPortionsAreDropped) {
  IntervalScheduler s(1.0, 2, 0.1);  // coarse resolution
  auto t1 = s.acquire();
  ASSERT_TRUE(t1);
  // Disk leaves only a 0.05-wide sliver: below resolution, dropped.
  s.complete(*t1, 0.45, {});  // interval [0, 0.5], shift 0, covers [0,0.45]
  auto t2 = s.acquire();      // right extremum
  ASSERT_TRUE(t2);
  s.complete(*t2, 0.6, {});
  EXPECT_TRUE(s.done());
}

TEST(Intervals, TerminationRequiresInFlightCompletion) {
  IntervalScheduler s(2.0, 2, 1e-9);
  auto t1 = s.acquire();
  auto t2 = s.acquire();
  ASSERT_TRUE(t1 && t2);
  EXPECT_FALSE(s.done());
  EXPECT_FALSE(s.acquire().has_value());  // queue empty, work in flight
  s.complete(*t1, 5.0, {});
  EXPECT_FALSE(s.done());  // t2 still in flight
  s.complete(*t2, 5.0, {});
  EXPECT_TRUE(s.done());
}

TEST(Intervals, TentativeIntervalsStayDisjoint) {
  // Invariant behind the paper's free-interval pick rule (Eq. 20).
  IntervalScheduler s(16.0, 8, 1e-9);
  std::vector<TentativeInterval> seen;
  // Drive a random-ish schedule: acquire two, complete with varied radii.
  for (int round = 0; round < 50 && !s.done(); ++round) {
    auto a = s.acquire();
    if (!a) break;
    // Check disjointness against current queue by acquiring everything.
    std::vector<TentativeInterval> rest;
    while (auto b = s.acquire()) rest.push_back(*b);
    for (const auto& iv : rest) {
      const bool disjoint = iv.hi <= a->lo + 1e-15 || iv.lo >= a->hi - 1e-15;
      EXPECT_TRUE(disjoint);
    }
    // Finish everything with alternating small/large disks.
    double radius = (round % 2 == 0) ? 0.3 : 2.0;
    s.complete(*a, radius, {});
    for (const auto& iv : rest) {
      s.complete(iv, (round % 3 == 0) ? 0.2 : 1.5, {});
    }
  }
  EXPECT_TRUE(s.done());
}

TEST(Intervals, FullBandIsCoveredAtTermination) {
  // Property: whatever radii the single-shift runs return, the union of
  // completed disks covers the band up to the resolution.
  util::Rng rng(7);
  IntervalScheduler s(10.0, 4, 1e-6);
  int guard = 0;
  while (!s.done() && guard++ < 10000) {
    auto t = s.acquire();
    ASSERT_TRUE(t.has_value());
    const double halfwidth = 0.5 * (t->hi - t->lo);
    // Radii between 30% and 150% of the half-width exercise both the
    // cover and the split paths.
    const double radius = std::max(halfwidth * rng.uniform(0.3, 1.5), 1e-5);
    s.complete(*t, radius, {});
  }
  ASSERT_TRUE(s.done());

  std::vector<std::pair<double, double>> covered;
  for (const auto& d : s.disks()) {
    covered.emplace_back(d.center - d.radius, d.center + d.radius);
  }
  std::sort(covered.begin(), covered.end());
  double cursor = 0.0;
  for (const auto& [lo, hi] : covered) {
    EXPECT_LE(lo, cursor + 1e-5);
    cursor = std::max(cursor, hi);
    if (cursor >= 10.0) break;
  }
  EXPECT_GE(cursor, 10.0 - 1e-5);
}

TEST(Intervals, ExplicitIntervalConstructorValidates) {
  std::vector<TentativeInterval> bad(1);
  bad[0].lo = 0.0;
  bad[0].hi = 1.0;
  bad[0].shift = 2.0;  // outside
  EXPECT_THROW(IntervalScheduler(std::move(bad), 1e-9),
               std::invalid_argument);
}

TEST(Intervals, EigenvalueAggregation) {
  IntervalScheduler s(2.0, 2, 1e-9);
  auto t1 = s.acquire();
  auto t2 = s.acquire();
  s.complete(*t1, 5.0, {la::Complex(0.0, 1.0)});
  s.complete(*t2, 5.0, {la::Complex(0.0, 1.7), la::Complex(0.1, 0.3)});
  EXPECT_EQ(merge_disk_eigenvalues(s.disks(), 2.0).size(), 3u);
  EXPECT_EQ(s.disks().size(), 2u);
}

TEST(Intervals, MergeKeepsEachEigenvaluesCopyNearestItsOwnDisk) {
  // Two overlapping disks report one eigenvalue near j*1.0, each with
  // its own perturbation (within the cluster radius 1e-7 * scale): the
  // copy nearer its own disk's center wins, whatever the disk order.
  // Eigenvalues only one disk reports are kept as they are.
  const double scale = 10.0;
  const la::Complex near_copy(0.0, 1.0 + 2e-7);  // 0.1 from its center
  const la::Complex far_copy(0.0, 1.0 - 3e-7);   // 0.9 from its center
  const CompletedDisk a{1.1, 0.5, {near_copy, la::Complex(0.0, 1.3)}};
  const CompletedDisk b{0.1, 1.0, {la::Complex(0.2, 0.05), far_copy}};
  for (const auto& disks : {std::vector<CompletedDisk>{a, b},
                            std::vector<CompletedDisk>{b, a}}) {
    const la::ComplexVector merged = merge_disk_eigenvalues(disks, scale);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0], la::Complex(0.2, 0.05));  // sorted by Im
    EXPECT_EQ(merged[1], near_copy);
    EXPECT_EQ(merged[2], la::Complex(0.0, 1.3));
  }

  // Equally distant copies (mirror images about j*1.0): the lower disk
  // index wins.
  const la::Complex left_copy(1e-7, 1.0);
  const la::Complex right_copy(-1e-7, 1.0);
  const CompletedDisk left{0.5, 1.0, {left_copy}};
  const CompletedDisk right{1.5, 1.0, {right_copy}};
  EXPECT_EQ(merge_disk_eigenvalues({left, right}, 100.0),
            la::ComplexVector{left_copy});
  EXPECT_EQ(merge_disk_eigenvalues({right, left}, 100.0),
            la::ComplexVector{right_copy});
}

}  // namespace
}  // namespace phes
