#pragma once
// Reusable solver contexts — the session layer over the parallel
// Hamiltonian eigensolver.
//
// The enforcement loop (characterize -> perturb residues ->
// re-characterize, 3-10 rounds on a typical non-passive model) and the
// verify stage both re-run the eigensolver on a model that differs only
// slightly — or not at all — from the one just solved.  A
// SolverSession owns a SimoRealization snapshot, its revision (bumped
// by every update_residues) and a one-entry memo of the last result and
// the revision it was computed at.
//
// solve() answers a same-revision re-solve (enforcement's round 0 after
// characterize, verify after the last round) from the memo: the
// product of the stored run with its work counters zeroed, since
// nothing ran.  Any other solve runs cold — core::solve_dense at order
// <= kDenseMaxOrder, otherwise the Krylov solver,
// ParallelHamiltonianEigensolver(realization).solve — and replaces the
// memo.  Both routes are deterministic at one solver thread (the
// Krylov start vectors come from `seed`), so at one thread a memo
// answer is the bits a re-run would compute.  The memo key is
// the revision alone: the product is a property of the model, so any
// options are answered by the stored certificate.  A session's order
// never changes, so one session always takes the same route.
//
// One session per job; solve() is not thread-safe (run solves
// sequentially on a session).

#include <cstdint>
#include <optional>

#include "phes/core/solver.hpp"
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

/// Aggregate session counters (surfaced per job by the pipeline).
struct SessionStats {
  std::uint64_t revision = 0;
  std::size_t solves = 0;          ///< solve() calls on this session
  std::size_t dense_solves = 0;    ///< dense eigensolves that ran
  /// Solves answered from the memo (same revision): the eigensolves
  /// that ran are solves - reuses.
  std::size_t reuses = 0;
  std::size_t factorizations = 0;  ///< shift-invert operators built
  // Always 0: kept only because bench/ledger/bench_ledger.cpp reads them.
  struct {
    std::size_t hits = 0;
    std::size_t misses = 0;
  } cache;
  std::size_t warm_solves = 0;
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
  /// the model revision, so the next solve runs.
  void update_residues(const la::RealMatrix& c);

  /// The eigensolver's product for the current snapshot: the memo's on
  /// a same-revision re-solve (zero work counters, `seconds` is the
  /// lookup time), otherwise a cold core::solve_dense at order <=
  /// kDenseMaxOrder or a cold Krylov solve with `options`.
  [[nodiscard]] core::SolverResult solve(const core::SolverOptions& options);

  [[nodiscard]] SessionStats stats() const;

 private:
  macromodel::SimoRealization realization_;
  std::uint64_t revision_ = 0;
  SessionStats stats_;
  /// The last result (work counters zeroed) and its revision.
  struct Memo {
    std::uint64_t revision = 0;
    core::SolverResult result;
  };
  std::optional<Memo> memo_;
};

}  // namespace phes::engine
