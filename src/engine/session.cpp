#include "phes/engine/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "phes/la/blas.hpp"
#include "phes/util/check.hpp"
#include "phes/util/threads.hpp"
#include "phes/util/timer.hpp"

namespace phes::engine {

namespace {

/// Shift factorizations a session's LRU cache keeps.
constexpr std::size_t kCacheCapacity = 64;

}  // namespace

SolverSession::SolverSession(macromodel::SimoRealization realization)
    : realization_(std::move(realization)), cache_(kCacheCapacity) {}

SolverSession::SolverSession(const macromodel::PoleResidueModel& model)
    : SolverSession(macromodel::SimoRealization(model)) {}

void SolverSession::update_residues(const la::RealMatrix& c) {
  util::check(c.rows() == realization_.c().rows() &&
                  c.cols() == realization_.c().cols(),
              "SolverSession::update_residues: C shape mismatch");
  // Track how far C has drifted since the band edge was last actually
  // estimated; solve() re-estimates once the drift is no longer small.
  const double c_norm = la::frobenius_norm(realization_.c());
  if (c_norm > 0.0) {
    const la::RealMatrix diff = c - realization_.c();
    residue_drift_ += la::frobenius_norm(diff) / c_norm;
  }
  realization_.c() = c;
  ++revision_;
  // Cached operators read C at apply time: everything older is invalid.
  cache_.invalidate_before(revision_);
}

core::SolverResult SolverSession::solve(const core::SolverOptions& opt) {
  if (realization_.order() <= kDenseMaxOrder) {
    // Small model: one dense eigensolve beats the Krylov search.  The
    // dense eigensolve is deterministic and reads no option, so a
    // repeat on the same revision (verify after enforce, enforcement's
    // round 0 after characterize) is answered from the memo, bit for
    // bit.
    util::WallTimer timer;
    ++solves_;
    if (dense_memo_ && dense_memo_->revision == revision_) {
      ++dense_reuses_;
      core::SolverResult result = dense_memo_->result;
      result.seconds = timer.seconds();
      return result;
    }
    core::SolverResult result = core::solve_dense(realization_);
    ++dense_solves_;
    dense_memo_ = DenseMemo{revision_, result};
    return result;
  }

  // Snapshot counters so the result carries per-solve deltas.
  const CacheStats before = cache_.stats();
  const std::size_t builds_before = factorizations_.load();

  const std::uint64_t revision = revision_;
  core::SolveContext ctx;
  ctx.factory = [this, revision](la::Complex theta) {
    return cache_.acquire(revision, theta, [&] {
      factorizations_.fetch_add(1);
      return std::make_shared<const hamiltonian::SmwShiftInvertOp>(
          realization_, theta);
    });
  };

  core::WarmStartSeeds seeds;
  if (warm_.valid) {
    if (warm_.revision == revision_) {
      // Unchanged model: the recorded solve counts as the confirmation
      // restart of each replayed disk, so the restart floor drops to 1
      // for the seeded intervals only (fresh mop-up intervals keep the
      // full restart insurance).
      ctx.confirm_seeded = true;
    }
    // The band edge transfers unless the residues have drifted enough
    // to move the spectral radius materially since the edge was last
    // estimated (the |lambda|max estimate carries a 1.05 safety
    // factor).
    if (residue_drift_ < 0.05) seeds.band_hint = warm_.omega_max;
    // Same revision: re-solve the identical model — the previous disk
    // plan (centers AND certified radii) is proven and the
    // factorizations are still resident.  New revision: the crossings
    // are where the perturbed eigenvalues still cluster, but the disks
    // must be re-derived.
    if (warm_.revision == revision_) {
      seeds.shifts = warm_.shift_centers;
      seeds.radii = warm_.shift_radii;
    } else {
      // Crossings arrive in clusters (the two edges of a narrow
      // violation band hug its peak); one seed disk covers its whole
      // cluster, so thin them to cluster representatives — redundant
      // seeds cost a full Arnoldi run each before the cover rule can
      // drop them.
      const double band_guess = std::max(seeds.band_hint, warm_.omega_max);
      seeds.shifts = core::plan_seeds(band_guess * 1.01, warm_.crossings,
                                      {}, 0.02 * band_guess)
                         .shifts;
    }
    ctx.seeds = &seeds;

    if (seeds.band_hint > 0.0) {
      // Pre-build the factorizations the scheduler will ask for first,
      // so seeded startup intervals begin with cache hits.
      // planned_seeds is the solver's own filter, so the prefetched
      // cache keys match the scheduler's requests bitwise.
      const core::SeedPlan kept =
          core::planned_seeds(opt, seeds.band_hint, seeds);
      // Prefetch is best-effort: a build failure of any kind (singular
      // shift, allocation, precondition) is left for the solve proper
      // to surface — never let it escape a worker thread.
      const auto prefetch_one = [&](double w) noexcept {
        try {
          (void)ctx.factory(la::Complex(0.0, w));
        } catch (...) {
        }
      };
      // Factorizations are the dominant per-shift setup cost; build
      // them with the solve's thread budget, not serially.
      util::parallel_for(opt.threads, kept.shifts.size(),
                         [&](std::size_t i, std::size_t) {
                           prefetch_one(kept.shifts[i]);
                         });
    }
  }

  core::ParallelHamiltonianEigensolver solver(realization_);
  core::SolverResult result = solver.solve(opt, ctx);

  const CacheStats after = cache_.stats();
  result.cache_hits = after.hits - before.hits;
  result.cache_misses = after.misses - before.misses;
  result.factorizations += factorizations_.load() - builds_before;

  // A fresh |lambda|max estimate ran: the band edge is current again.
  if (result.lambda_max_matvecs > 0) residue_drift_ = 0.0;

  ++solves_;
  if (result.warm_started) ++warm_solves_;

  // Record this outcome for the next solve (survives residue updates).
  warm_.valid = true;
  warm_.revision = revision_;
  warm_.omega_max = result.omega_max;
  warm_.crossings = result.crossings;
  warm_.shift_centers.clear();
  warm_.shift_radii.clear();
  warm_.shift_centers.reserve(result.disks.size());
  warm_.shift_radii.reserve(result.disks.size());
  std::vector<std::size_t> order(result.disks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.disks[a].center < result.disks[b].center;
  });
  for (const std::size_t i : order) {
    warm_.shift_centers.push_back(result.disks[i].center);
    warm_.shift_radii.push_back(result.disks[i].radius);
  }

  return result;
}

std::size_t SolverSession::approx_memory_bytes() const {
  const std::size_t n = realization_.order();
  const std::size_t p = realization_.ports();
  // Realization: C (p x n), D (p x p), pole blocks.
  std::size_t bytes = (p * n + p * p) * sizeof(double) +
                      realization_.blocks().size() * sizeof(macromodel::SimoBlock);
  // Each cached operator holds the LU of the 2p x 2p SMW kernel (plus
  // pivots, ignored here).
  const std::size_t per_op = 4 * p * p * sizeof(la::Complex);
  bytes += cache_.stats().entries * per_op;
  // Warm-start record vectors.
  bytes += (warm_.crossings.size() + warm_.shift_centers.size() +
            warm_.shift_radii.size()) *
           sizeof(double);
  if (dense_memo_) {
    bytes += dense_memo_->result.crossings.size() * sizeof(double) +
             dense_memo_->result.eigenvalues.size() * sizeof(la::Complex);
  }
  return bytes;
}

SessionStats SolverSession::stats() const {
  SessionStats s;
  s.cache = cache_.stats();
  s.revision = revision_;
  s.solves = solves_;
  s.warm_solves = warm_solves_;
  s.dense_solves = dense_solves_;
  s.dense_reuses = dense_reuses_;
  s.factorizations = factorizations_.load();
  return s;
}

}  // namespace phes::engine
