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
#include "phes/la/types.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::core {

/// Scheduling strategy for distributing shifts over threads.
enum class SchedulingMode {
  kDynamic,  ///< paper Sec. IV: work queue with cover/split updates
  kStaticGrid,  ///< fixed uniform grid, gaps mopped up afterwards
};

/// Solver configuration.  The paper's fixed settings (kappa, alpha,
/// ...) are constants; its n_theta cap is not kept, and restart 0 runs
/// at d = kKrylovDim = 32 instead of its d = 60 (see single_shift.hpp).
struct SolverOptions {
  std::size_t threads = 1;
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
  /// All (deduplicated) eigenvalues found in the certified disks; the
  /// Krylov route keeps each one's copy nearest its own shift
  /// (merge_disk_eigenvalues).
  la::ComplexVector eigenvalues;
  double omega_min = 0.0;  ///< searched band [omega_min, omega_max];
  double omega_max = 0.0;  ///< omega_min is always 0
  double seconds = 0.0;
  std::size_t shifts_processed = 0;
  std::size_t shifts_eliminated = 0;  ///< dropped by the cover rule
  /// All matrix-vector products spent, including the |lambda|max band
  /// estimate.
  std::size_t total_matvecs = 0;
  std::size_t lambda_max_matvecs = 0;  ///< band-estimate share of the total
  std::vector<ShiftRecord> shift_log;
  std::vector<CompletedDisk> disks;   ///< for coverage verification
  std::size_t factorizations = 0;  ///< shift-invert operators built

  /// Solved by the dense route (solve_dense): every shift, matvec and
  /// factorization counter above is zero.
  bool dense = false;
};

/// The crossing filter both solver routes share.  Sorts and
/// deduplicates `result.eigenvalues` (within kClusterTol * scale),
/// keeps the numerically imaginary ones (|Re lambda| <= 1e-6 *
/// |lambda|) as the sorted, deduplicated crossings |Im lambda|, and
/// sets `passive` and `shifts_processed`.  The scale is max(max pole
/// magnitude of `realization`, band_hi).  A candidate whose Hamiltonian
/// mirror -Re lambda + j Im lambda is another deduplicated eigenvalue
/// is one of a complex pair near the axis, not a crossing: a simple
/// imaginary eigenvalue is its own mirror, which deduplication has
/// already merged with it.
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

/// Largest state order that solve() sends through the dense route
/// instead of the Krylov solver.  Measured by
/// bench/ablation_full_vs_selective (cold solves, best of 3, 4-core
/// x86-64, GCC 12 Release), p = 4 / p = 16, milliseconds:
///
///     order   dense         Krylov 1 thread   Krylov 4 threads
///        48     1.2 /   1.4     90 /  76         124 /  39
///        96    13   /  18      196 / 187         203 / 107
///       144    39   /  38      390 / 350         111 / 127
///       192   127   / 133      577 / 601         183 / 186
///       256   507   / 512      868 / 860         237 / 242
///       384  1432   / 1382    1405 / 1330        462 / 388
///
/// Krylov at 4 threads wins from between 192 and 256 on; both routes
/// find the same crossings at every point.  A second run repeated the
/// 192 and 256 rows within 20 %; 4-thread Krylov below order 144 varied
/// up to 3x (41 ms at order 48, p = 4).  Every served `phes_pipeline
/// gen` model (order 24-48) is dense; the paper's n = 1000 cases stay
/// on Krylov.
inline constexpr std::size_t kDenseMaxOrder = 192;

/// The one solve entry point: solve_dense at order <= kDenseMaxOrder,
/// otherwise ParallelHamiltonianEigensolver(realization).solve(options).
/// Both routes are deterministic at one solver thread (the Krylov start
/// vectors come from `options.seed`).
[[nodiscard]] SolverResult solve(
    const macromodel::SimoRealization& realization,
    const SolverOptions& options);

class ParallelHamiltonianEigensolver {
 public:
  /// Keeps a reference to `realization` (caller guarantees lifetime).
  explicit ParallelHamiltonianEigensolver(
      const macromodel::SimoRealization& realization);

  /// Run the multi-shift search.  Thread-safe: concurrent solve() calls
  /// on one instance are allowed (all state is per-call).
  [[nodiscard]] SolverResult solve(const SolverOptions& options) const;

 private:
  [[nodiscard]] SolverResult run_scheduler(IntervalScheduler scheduler,
                                           const SolverOptions& options,
                                           double band_hi) const;

  /// Static strawman: every grid shift is processed unconditionally
  /// (no cover-rule elimination), then coverage gaps are finished with
  /// a dynamic pass so the result stays complete.
  [[nodiscard]] SolverResult run_static_grid(const SolverOptions& options,
                                             double band_hi) const;

  const macromodel::SimoRealization& realization_;
};

}  // namespace phes::core
