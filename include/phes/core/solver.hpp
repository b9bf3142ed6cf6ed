#pragma once
// Public facade: the parallel Hamiltonian eigensolver (the paper's
// headline contribution).
//
// Finds the complete set Omega of purely imaginary eigenvalues of the
// Hamiltonian associated with a structured scattering macromodel, by
// running single-shift Arnoldi iterations concurrently under the
// dynamic shift-scheduling strategy of Sec. IV.  A static
// pre-distributed-grid scheduler — the strawman the paper dismisses —
// is included for the scalability ablation.
//
// The search band is always [0, |lambda|max] (Sec. IV-A).  The paper's
// fixed settings are constants: kappa = 2 initial intervals per thread,
// the Eq. 23 overlap alpha = 1.05, intervals thinner than 1e-9 of the
// band count as covered, and an eigenvalue is purely imaginary when
// |Re lambda| <= 1e-6 |lambda|.

#include <cstdint>
#include <vector>

#include "phes/core/intervals.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::core {

/// Scheduling strategy for distributing shifts over threads.
enum class SchedulingMode {
  kDynamic,  ///< paper Sec. IV: work queue with cover/split updates
  kStaticGrid,  ///< fixed uniform grid, gaps mopped up afterwards
};

/// Solver configuration; defaults follow the paper's reported settings.
struct SolverOptions {
  std::size_t threads = 1;
  SingleShiftOptions shift{};
  SchedulingMode scheduling = SchedulingMode::kDynamic;
  std::uint64_t seed = 1;
};

/// Per-shift execution record (diagnostics and scheduling ablations).
struct ShiftRecord {
  double center = 0.0;
  double radius = 0.0;
  std::size_t eigenvalues_found = 0;
  std::size_t restarts = 0;
  std::size_t matvecs = 0;
  double seconds = 0.0;
  std::size_t thread = 0;
};

/// Solve outcome.
struct SolverResult {
  /// Omega: sorted positive crossing frequencies (empty => passive).
  la::RealVector crossings;
  bool passive = false;
  /// All (deduplicated) eigenvalues found in the certified disks.
  la::ComplexVector eigenvalues;
  double omega_min = 0.0;  ///< searched band [omega_min, omega_max];
  double omega_max = 0.0;  ///< omega_min is always 0
  double seconds = 0.0;
  std::size_t shifts_processed = 0;
  std::size_t shifts_eliminated = 0;  ///< dropped by the cover rule
  /// All matrix-vector products spent, including the |lambda|max band
  /// estimate (a warm-started re-solve skips that estimate entirely).
  std::size_t total_matvecs = 0;
  std::size_t lambda_max_matvecs = 0;  ///< band-estimate share of the total
  std::vector<ShiftRecord> shift_log;
  std::vector<CompletedDisk> disks;   ///< for coverage verification

  // -- Session / warm-start diagnostics (engine::SolverSession) --------
  bool warm_started = false;     ///< scheduler seeded from a prior solve
  std::size_t seeded_shifts = 0; ///< seed intervals injected at startup
  std::size_t factorizations = 0;  ///< shift-invert operators built
  std::size_t cache_hits = 0;      ///< factorization-cache hits
  std::size_t cache_misses = 0;    ///< factorization-cache misses

  /// Solved by the dense route (solve_dense): every shift, matvec,
  /// factorization and cache counter above is zero.
  bool dense = false;
};

/// Warm-start seeds for a re-solve (produced by engine::SolverSession
/// from the previous outcome on the same model family).
struct WarmStartSeeds {
  /// Seed shift frequencies; each becomes a startup interval's
  /// tentative shift (dynamic mode only).
  la::RealVector shifts;
  /// Previously certified clean radii, parallel to `shifts` (or empty):
  /// a same-revision re-solve starts each disk at its proven size
  /// instead of re-deriving it from the interval width.
  la::RealVector radii;
  /// Known band edge from the previous solve; > 0 replaces the
  /// |lambda|max Arnoldi estimate.
  double band_hint = 0.0;
};

/// Per-solve dependency hooks.  Default-constructed context reproduces
/// the classic cold solve bit for bit.
struct SolveContext {
  /// Routes shift-invert construction (e.g. through a factorization
  /// cache).  Empty => build one operator per shift from scratch.
  hamiltonian::ShiftInvertFactory factory;
  /// Scheduler seeding; nullptr => the paper's uniform startup grid.
  const WarmStartSeeds* seeds = nullptr;
  /// Confirmation re-solve of an unchanged model: intervals that carry
  /// a previously certified radius (rho0 > 0) run with a restart floor
  /// of 1 instead of kMinRestarts — the recorded solve already paid
  /// their explicit-restart insurance.  Fresh fill/mop-up intervals
  /// keep the full restart policy.
  bool confirm_seeded = false;
};

/// The exact seed plan solve() will hand the scheduler for `options`
/// on band [0, band_hi] — the single source of truth for the seed
/// filter, exposed so engine::SolverSession can prefetch
/// factorizations for bitwise-identical shift keys.  Empty when the
/// scheduling mode or seed set yields no seeded startup.
[[nodiscard]] SeedPlan planned_seeds(const SolverOptions& options,
                                     double band_hi,
                                     const WarmStartSeeds& seeds);

/// The crossing filter both solver routes share.  Sorts and
/// deduplicates `result.eigenvalues` (within kClusterTol * scale),
/// keeps the numerically imaginary ones (|Re lambda| <= 1e-6 *
/// |lambda|) as the sorted, deduplicated crossings |Im lambda|, and
/// sets `passive` and `shifts_processed`.  The scale is max(max pole
/// magnitude of `realization`, band_hi).
void finalize_crossings(SolverResult& result,
                        const macromodel::SimoRealization& realization,
                        double band_hi);

/// The dense route: the full spectrum of the explicit 2n x 2n
/// scattering Hamiltonian (hamiltonian::build_scattering_hamiltonian +
/// la::real_eigenvalues, O(n^3)), restricted to Im lambda >= 0 and
/// passed through finalize_crossings.  Reports the exact spectral
/// radius as omega_max.  Single-threaded and deterministic; no solver
/// option applies.
[[nodiscard]] SolverResult solve_dense(
    const macromodel::SimoRealization& realization);

class ParallelHamiltonianEigensolver {
 public:
  /// Keeps a reference to `realization` (caller guarantees lifetime).
  explicit ParallelHamiltonianEigensolver(
      const macromodel::SimoRealization& realization);

  /// Run the multi-shift search.  Thread-safe: concurrent solve() calls
  /// on one instance are allowed (all state is per-call).
  [[nodiscard]] SolverResult solve(const SolverOptions& options) const;

  /// Same search with per-solve hooks: a shift-invert factory (cache)
  /// and warm-start scheduler seeds.
  [[nodiscard]] SolverResult solve(const SolverOptions& options,
                                   const SolveContext& context) const;

 private:
  [[nodiscard]] SolverResult run_scheduler(IntervalScheduler scheduler,
                                           const SolverOptions& options,
                                           const SolveContext& context,
                                           double band_hi) const;

  /// Static strawman: every grid shift is processed unconditionally
  /// (no cover-rule elimination), then coverage gaps are finished with
  /// a dynamic pass so the result stays complete.
  [[nodiscard]] SolverResult run_static_grid(const SolverOptions& options,
                                             const SolveContext& context,
                                             double band_hi) const;

  const macromodel::SimoRealization& realization_;
};

}  // namespace phes::core
