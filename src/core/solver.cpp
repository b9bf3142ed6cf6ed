#include "phes/core/solver.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "phes/core/lambda_max.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/util/check.hpp"
#include "phes/util/sync.hpp"
#include "phes/util/threads.hpp"
#include "phes/util/timer.hpp"

namespace phes::core {

namespace {

// Salts separating RNG streams of different subsystems.
constexpr std::uint64_t kShiftStreamSalt = 0x5348494654ULL;   // "SHIFT"
constexpr std::uint64_t kStaticStreamSalt = 0x53544154ULL;    // "STAT"
constexpr std::uint64_t kLambdaStreamSalt = 0x4c4d4158ULL;    // "LMAX"

// N = kKappa * threads initial intervals, kappa >= 2 (Sec. IV-A).
constexpr std::size_t kKappa = 2;
// Initial-radius overlap factor alpha >~ 1 (Eq. 23).
constexpr double kAlpha = 1.05;
// Intervals thinner than kResolution * band count as covered.
constexpr double kResolution = 1e-9;
// Relative |Re lambda| threshold for "purely imaginary".
constexpr double kImagTol = 1e-6;

}  // namespace

ParallelHamiltonianEigensolver::ParallelHamiltonianEigensolver(
    const macromodel::SimoRealization& realization)
    : realization_(realization) {}

SolverResult ParallelHamiltonianEigensolver::solve(
    const SolverOptions& opt) const {
  util::check(opt.threads >= 1, "solve: need at least one thread");

  util::WallTimer timer;

  util::Rng rng(opt.seed, kLambdaStreamSalt);
  const LambdaMaxEstimate est = estimate_lambda_max(realization_, rng);
  const double band_hi = est.omega_max;
  util::require(band_hi > 0.0,
                "solve: could not establish a positive search band");

  SolverResult result;
  if (opt.scheduling == SchedulingMode::kDynamic) {
    const double min_width = std::max(kResolution * band_hi, 1e-300);
    IntervalScheduler sched(band_hi, kKappa * opt.threads, min_width);
    result = run_scheduler(std::move(sched), opt, band_hi);
  } else {
    result = run_static_grid(opt, band_hi);
  }

  result.omega_max = band_hi;
  result.lambda_max_matvecs = est.matvecs;
  result.total_matvecs += est.matvecs;
  result.seconds = timer.seconds();
  return result;
}

SolverResult ParallelHamiltonianEigensolver::run_scheduler(
    IntervalScheduler sched, const SolverOptions& opt,
    double band_hi) const {
  SolverResult result;

  util::Mutex mutex;
  util::CondVar cv;
  std::size_t failures = 0;
  const double min_width = std::max(kResolution * band_hi, 1e-300);

  // The worker holds the lock around the scheduler and drops it for the
  // shift iteration; the explicit lock()/unlock() calls are balanced on
  // every path so the analysis can track the capability across the loop.
  auto worker = [&](std::size_t tid) {
    mutex.lock();
    while (!sched.done()) {
      auto task = sched.acquire();
      if (!task) {
        // In-flight shifts may still split their intervals; wait for a
        // completion (or termination) signal.
        cv.wait(mutex);
        continue;
      }
      mutex.unlock();

      // Initial radius per Eq. 23: alpha * half-width, slight overlap
      // with the adjacent intervals.
      const double rho0 =
          std::max(kAlpha * 0.5 * (task->hi - task->lo), 2.0 * min_width);
      util::Rng rng(opt.seed, kShiftStreamSalt ^ task->id);
      util::WallTimer shift_timer;
      SingleShiftResult sres;
      bool ok = true;
      try {
        sres = single_shift_iteration(realization_, task->shift, rho0,
                                      opt.shift, kMinRestarts, rng);
      } catch (const std::exception&) {
        ok = false;
      }
      const double seconds = shift_timer.seconds();

      mutex.lock();
      if (ok) {
        ShiftRecord rec;
        rec.center = task->shift;
        rec.radius = sres.radius;
        rec.eigenvalues_found = sres.eigenvalues.size();
        rec.restarts = sres.restarts;
        rec.matvecs = sres.matvecs;
        rec.seconds = seconds;
        rec.thread = tid;
        result.shift_log.push_back(rec);
        result.total_matvecs += sres.matvecs;
        result.factorizations += sres.factorizations;
        sched.complete(*task, std::max(sres.radius, 2.0 * min_width),
                       std::move(sres.eigenvalues));
      } else {
        // Retire a sliver so the scheduler keeps making progress; the
        // rest of the interval is re-queued by the split rule.
        ++failures;
        sched.complete(*task, 2.0 * min_width, {});
      }
      cv.notify_all();
    }
    mutex.unlock();
    cv.notify_all();
  };

  // One scheduler loop per thread; at one thread it runs inline.
  util::parallel_for(opt.threads, opt.threads,
                     [&](std::size_t, std::size_t tid) { worker(tid); });

  util::require(failures == 0,
                "solve: one or more single-shift iterations failed");

  result.shifts_eliminated = sched.shifts_eliminated();
  result.disks = sched.disks();
  la::ComplexVector all = sched.all_eigenvalues();
  result.eigenvalues = std::move(all);
  finalize_crossings(result, realization_, band_hi);
  return result;
}

SolverResult ParallelHamiltonianEigensolver::run_static_grid(
    const SolverOptions& opt, double band_hi) const {
  SolverResult result;
  const std::size_t n_shifts = kKappa * opt.threads;
  const double width = band_hi / static_cast<double>(n_shifts);
  const double min_width = std::max(kResolution * band_hi, 1e-300);

  // Phase 1: process every grid shift unconditionally, in parallel.
  std::vector<ShiftRecord> records(n_shifts);
  std::vector<SingleShiftResult> outcomes(n_shifts);
  std::atomic<std::size_t> failures{0};
  util::parallel_for(opt.threads, n_shifts, [&](std::size_t i,
                                                std::size_t tid) {
    const double lo = width * static_cast<double>(i);
    const double hi = (i + 1 == n_shifts) ? band_hi : lo + width;
    const double center = 0.5 * (lo + hi);
    const double rho0 = std::max(kAlpha * 0.5 * (hi - lo),
                                 2.0 * min_width);
    util::Rng rng(opt.seed, kStaticStreamSalt ^ i);
    util::WallTimer t;
    try {
      outcomes[i] = single_shift_iteration(realization_, center, rho0,
                                           opt.shift, kMinRestarts, rng);
    } catch (const std::exception&) {
      failures.fetch_add(1);
      outcomes[i].radius = 2.0 * min_width;
    }
    records[i] = {center,
                  outcomes[i].radius,
                  outcomes[i].eigenvalues.size(),
                  outcomes[i].restarts,
                  outcomes[i].matvecs,
                  t.seconds(),
                  tid};
  });
  util::require(failures.load() == 0,
                "solve: one or more single-shift iterations failed");

  for (std::size_t i = 0; i < n_shifts; ++i) {
    result.shift_log.push_back(records[i]);
    result.total_matvecs += records[i].matvecs;
    result.factorizations += outcomes[i].factorizations;
    CompletedDisk disk;
    disk.center = records[i].center;
    disk.radius = records[i].radius;
    disk.eigenvalues = outcomes[i].eigenvalues;
    result.disks.push_back(std::move(disk));
  }

  // Phase 2: find coverage gaps and finish them with a dynamic pass.
  std::vector<std::pair<double, double>> covered;
  covered.reserve(n_shifts);
  for (const auto& d : result.disks) {
    covered.emplace_back(d.center - d.radius, d.center + d.radius);
  }
  std::sort(covered.begin(), covered.end());
  std::vector<TentativeInterval> gaps;
  double cursor = 0.0;
  for (const auto& [lo, hi] : covered) {
    if (lo > cursor + min_width) {
      TentativeInterval iv;
      iv.lo = cursor;
      iv.hi = lo;
      iv.shift = 0.5 * (cursor + lo);
      gaps.push_back(iv);
    }
    cursor = std::max(cursor, hi);
  }
  if (band_hi > cursor + min_width) {
    TentativeInterval iv;
    iv.lo = cursor;
    iv.hi = band_hi;
    iv.shift = 0.5 * (cursor + band_hi);
    gaps.push_back(iv);
  }

  if (!gaps.empty()) {
    IntervalScheduler mop(std::move(gaps), min_width);
    SolverResult phase2 = run_scheduler(std::move(mop), opt, band_hi);
    for (const auto& rec : phase2.shift_log) {
      result.shift_log.push_back(rec);
      result.total_matvecs += rec.matvecs;
    }
    result.factorizations += phase2.factorizations;
    for (const auto& d : phase2.disks) result.disks.push_back(d);
  }

  la::ComplexVector all;
  for (const auto& d : result.disks) {
    all.insert(all.end(), d.eigenvalues.begin(), d.eigenvalues.end());
  }
  result.eigenvalues = std::move(all);
  result.shifts_eliminated = 0;  // the static grid never skips work
  finalize_crossings(result, realization_, band_hi);
  return result;
}

void finalize_crossings(SolverResult& result,
                        const macromodel::SimoRealization& realization,
                        double band_hi) {
  const double scale = std::max(realization.max_pole_magnitude(), band_hi);

  la::ComplexVector all = std::move(result.eigenvalues);
  std::sort(all.begin(), all.end(), [](la::Complex a, la::Complex b) {
    if (a.imag() != b.imag()) return a.imag() < b.imag();
    return a.real() < b.real();
  });
  la::ComplexVector dedup;
  for (const auto& lambda : all) {
    if (dedup.empty() ||
        std::abs(lambda - dedup.back()) > kClusterTol * scale) {
      dedup.push_back(lambda);
    }
  }

  la::RealVector crossings;
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    const la::Complex lambda = dedup[i];
    const double mag = std::max(std::abs(lambda), scale * 1e-12);
    if (std::abs(lambda.real()) > kImagTol * mag) continue;
    // A complex pair straddling the axis passes the test above; its
    // other half sits at the mirror -Re lambda + j Im lambda.
    const la::Complex mirror(-lambda.real(), lambda.imag());
    bool paired = false;
    for (std::size_t j = 0; j < dedup.size() && !paired; ++j) {
      paired = j != i && std::abs(dedup[j] - mirror) <= kClusterTol * scale;
    }
    if (!paired) crossings.push_back(std::abs(lambda.imag()));
  }
  std::sort(crossings.begin(), crossings.end());
  la::RealVector unique;
  for (double w : crossings) {
    if (unique.empty() || w - unique.back() > kClusterTol * scale) {
      unique.push_back(w);
    }
  }

  result.crossings = std::move(unique);
  result.passive = result.crossings.empty();
  result.eigenvalues = std::move(dedup);
  result.shifts_processed = result.shift_log.size();
}

SolverResult solve(const macromodel::SimoRealization& realization,
                   const SolverOptions& options) {
  // Small model: one dense eigensolve beats the Krylov search.
  return realization.order() <= kDenseMaxOrder
             ? solve_dense(realization)
             : ParallelHamiltonianEigensolver(realization).solve(options);
}

SolverResult solve_dense(const macromodel::SimoRealization& realization) {
  util::WallTimer timer;
  const la::ComplexVector spectrum = la::real_eigenvalues(
      hamiltonian::build_scattering_hamiltonian(realization.to_dense()));

  double band_hi = 0.0;
  for (const auto& lambda : spectrum) {
    band_hi = std::max(band_hi, std::abs(lambda));
  }

  SolverResult result;
  result.dense = true;
  for (const auto& lambda : spectrum) {
    if (lambda.imag() >= 0.0) result.eigenvalues.push_back(lambda);
  }
  finalize_crossings(result, realization, band_hi);
  result.omega_max = band_hi;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace phes::core
