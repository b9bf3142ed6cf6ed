#include "phes/engine/session.hpp"

#include <utility>

#include "phes/util/check.hpp"
#include "phes/util/timer.hpp"

namespace phes::engine {

SolverSession::SolverSession(macromodel::SimoRealization realization)
    : realization_(std::move(realization)) {}

SolverSession::SolverSession(const macromodel::PoleResidueModel& model)
    : SolverSession(macromodel::SimoRealization(model)) {}

void SolverSession::update_residues(const la::RealMatrix& c) {
  util::check(c.rows() == realization_.c().rows() &&
                  c.cols() == realization_.c().cols(),
              "SolverSession::update_residues: C shape mismatch");
  realization_.c() = c;
  ++revision_;
}

core::SolverResult SolverSession::solve(const core::SolverOptions& opt) {
  util::WallTimer timer;
  ++stats_.solves;
  if (memo_ && memo_->revision == revision_) {
    ++stats_.reuses;
    core::SolverResult result = memo_->result;
    result.seconds = timer.seconds();
    return result;
  }

  core::SolverResult result;
  if (realization_.order() <= kDenseMaxOrder) {
    // Small model: one dense eigensolve beats the Krylov search.
    result = core::solve_dense(realization_);
    ++stats_.dense_solves;
  } else {
    result = core::ParallelHamiltonianEigensolver(realization_).solve(opt);
  }
  stats_.factorizations += result.factorizations;

  // The memo keeps the product; a memo answer runs no eigensolve.
  memo_ = Memo{revision_, result};
  core::SolverResult& kept = memo_->result;
  kept.total_matvecs = 0;
  kept.lambda_max_matvecs = 0;
  kept.factorizations = 0;
  kept.shifts_processed = 0;
  kept.shifts_eliminated = 0;
  kept.shift_log.clear();
  return result;
}

SessionStats SolverSession::stats() const {
  SessionStats s = stats_;
  s.revision = revision_;
  return s;
}

}  // namespace phes::engine
