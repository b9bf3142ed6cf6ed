#pragma once
// Reusable solver contexts — the session layer over the parallel
// Hamiltonian eigensolver.
//
// The enforcement loop (characterize -> perturb residues ->
// re-characterize, 3-10 rounds on a typical non-passive model) and the
// verify stage both re-run the eigensolver on a model that differs only
// slightly — or not at all — from the one just solved.  A
// SolverSession makes that reuse explicit: it owns a SimoRealization
// snapshot, a thread-safe LRU ShiftFactorizationCache keyed on
// (model revision, shift), and a WarmStart record of the previous
// outcome that seeds the shift scheduler on re-solves:
//
//  - same revision (verify after enforce, confirmation re-solves): the
//    startup shifts are the previous certified disk centers, every
//    factorization comes back as a cache hit, and the |lambda|max band
//    estimate is skipped;
//  - after update_residues (next enforcement round): factorizations are
//    invalidated (the operator reads C at apply time) but the
//    warm-start seeds survive — the startup shifts are the previous
//    crossing frequencies, exactly where the perturbed eigenvalues
//    still cluster, and the band edge is reused.
//
// One session per job; solve() itself is not thread-safe (run solves
// sequentially on a session), but the solver's worker threads share the
// cache safely.
//
// Models of order <= kDenseMaxOrder skip all of the above: solve()
// sends them through core::solve_dense, which costs less than one
// Krylov characterization there and leaves no factorization or
// warm-start record behind.  Their reuse is a one-entry memo of the
// last dense result instead, keyed on the revision alone: solve_dense
// reads no solver option.  The dense eigensolve is deterministic, so a
// same-revision re-solve (enforcement's first round after
// characterize, verify after the last round, a pooled repeat of an
// unchanged model) returns the stored result bit for bit and counts as
// a dense reuse, not a dense solve.  update_residues bumps the
// revision, so perturbed rounds always recompute (and the session
// pool drops a session whose revision moved).
// The Krylov route has no such memo: its same-revision re-solve draws
// new start vectors, a genuine second certificate.  A session's order
// never changes, so one session always takes the same route.

#include <atomic>
#include <cstdint>
#include <optional>

#include "phes/core/solver.hpp"
#include "phes/engine/shift_cache.hpp"
#include "phes/la/matrix.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/simo_realization.hpp"

namespace phes::engine {

/// Largest state order that SolverSession::solve sends through the
/// dense Hamiltonian route instead of the Krylov solver.  Measured by
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

/// Outcome record of the session's most recent solve, kept across
/// residue updates so the next characterization starts informed.
struct WarmStart {
  bool valid = false;
  std::uint64_t revision = 0;  ///< revision the record was captured at
  /// Upper band edge of the recorded solve: the |lambda|max estimate or
  /// a hint derived from it, reused as the next solve's band hint.
  double omega_max = 0.0;
  la::RealVector crossings;    ///< previous Omega
  la::RealVector shift_centers;  ///< previous certified disk centers
  la::RealVector shift_radii;    ///< certified radii, parallel to centers
};

/// Aggregate session counters (surfaced per job by the pipeline).
struct SessionStats {
  CacheStats cache;
  std::uint64_t revision = 0;
  std::size_t solves = 0;          ///< solver invocations on this session
  std::size_t warm_solves = 0;     ///< solves that consumed a warm start
  std::size_t dense_solves = 0;    ///< dense eigensolves that ran
  /// Dense solves answered from the session's memo of its last dense
  /// result (same revision): solves == dense_solves + dense_reuses on
  /// a dense-route session.
  std::size_t dense_reuses = 0;
  std::size_t factorizations = 0;  ///< shift-invert operators built
};

class SolverSession {
 public:
  /// Owns `realization` as its model snapshot (revision 0).
  explicit SolverSession(macromodel::SimoRealization realization);
  /// Convenience: realize a pole-residue model into the session.
  explicit SolverSession(const macromodel::PoleResidueModel& model);

  SolverSession(const SolverSession&) = delete;
  SolverSession& operator=(const SolverSession&) = delete;

  [[nodiscard]] const macromodel::SimoRealization& realization()
      const noexcept {
    return realization_;
  }
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }

  /// Replace the residue matrix C (what enforcement perturbs).  Bumps
  /// the model revision and invalidates every cached factorization —
  /// but deliberately keeps the warm-start record: the new model's
  /// imaginary eigenvalues still cluster near the old crossings.
  void update_residues(const la::RealMatrix& c);

  /// Run the eigensolver on the current snapshot: core::solve_dense at
  /// order <= kDenseMaxOrder (or its memoized result on a same-revision
  /// re-solve; `seconds` is then the lookup time), otherwise the Krylov
  /// solver warm-started from the previous outcome and with
  /// factorizations routed through the cache.
  [[nodiscard]] core::SolverResult solve(const core::SolverOptions& options);

  [[nodiscard]] SessionStats stats() const;
  /// Approximate resident memory: the realization's matrices plus the
  /// cached factorizations (each a 2p x 2p complex LU).  Used by
  /// SessionPool's eviction budget; not an allocator-exact figure.
  [[nodiscard]] std::size_t approx_memory_bytes() const;
  void clear_warm_start() { warm_ = WarmStart{}; }

 private:
  macromodel::SimoRealization realization_;
  std::uint64_t revision_ = 0;
  ShiftFactorizationCache cache_;
  WarmStart warm_;
  /// Cumulative relative C drift since the band edge was last
  /// estimated; solve() refuses the warm band hint (and re-estimates)
  /// once this is no longer small relative to the estimate's safety
  /// factor, so the search band cannot go stale over many rounds.
  double residue_drift_ = 0.0;
  std::atomic<std::size_t> factorizations_{0};
  std::size_t solves_ = 0;
  std::size_t warm_solves_ = 0;
  std::size_t dense_solves_ = 0;
  std::size_t dense_reuses_ = 0;
  /// One-entry memo of the last dense result and the revision it was
  /// computed at.
  struct DenseMemo {
    std::uint64_t revision = 0;
    core::SolverResult result;
  };
  std::optional<DenseMemo> dense_memo_;
};

}  // namespace phes::engine
