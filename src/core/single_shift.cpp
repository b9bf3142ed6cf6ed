#include "phes/core/single_shift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/util/check.hpp"

namespace phes::core {

namespace {

using hamiltonian::SmwShiftInvertOp;
using la::Complex;
using la::ComplexVector;

// Relative residual acceptance of a Ritz pair.
constexpr double kRitzTol = 1e-9;
constexpr std::size_t kMaxRestarts = 10;
// Margin of the certified radius below the distance estimate of the
// nearest unconverged Ritz value.
constexpr double kRadiusSafety = 0.9;

struct LockedEig {
  Complex lambda{};
  double distance = 0.0;  ///< |lambda - theta|
};

}  // namespace

SingleShiftResult single_shift_iteration(
    const macromodel::SimoRealization& realization, double omega_center,
    double rho0, const SingleShiftOptions& opt, std::size_t min_restarts,
    util::Rng& rng) {
  util::check(rho0 > 0.0, "single_shift_iteration: rho0 must be positive");
  util::check(opt.eigs_per_shift >= 1 && opt.krylov_dim > opt.eigs_per_shift,
              "single_shift_iteration: need krylov_dim > eigs_per_shift >= 1");

  const double scale =
      std::max({std::abs(omega_center), realization.max_pole_magnitude(),
                1e-30});

  SingleShiftResult result;

  // Build the shift-and-invert operator; if theta is numerically an
  // eigenvalue the 2p x 2p kernel is singular — nudge and retry.
  Complex theta(0.0, omega_center);
  std::optional<SmwShiftInvertOp> op;
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      op.emplace(realization, theta);
      ++result.factorizations;
      break;
    } catch (const std::runtime_error&) {
      theta += Complex(0.0, scale * 1e-9 * static_cast<double>(attempt + 1));
    }
  }
  util::require(op.has_value(),
                "single_shift_iteration: shift-invert kernel singular even "
                "after nudging the shift");

  const std::size_t dim = op->dim();
  const std::size_t d = std::min(opt.krylov_dim, dim - 1);
  const std::size_t d_confirm = std::min(kConfirmDim, d);

  std::vector<LockedEig> locked;
  // Deflation basis: an ORTHONORMALIZED basis of the span of converged
  // Ritz vectors.  Eigenvectors of the (non-normal) Hamiltonian are not
  // mutually orthogonal, and sequential projection against a
  // non-orthogonal set is not a projector — deflating with raw Ritz
  // vectors produces spurious Ritz values.  Orthonormalizing preserves
  // the span (an approximately invariant subspace), which is all the
  // deflation needs.  Its plane rows are packed with stride 2 * dim.
  std::vector<double> locked_vectors;
  double rho = rho0;
  // Distance estimate of the nearest eigenvalue the process has seen but
  // not yet converged; caps the certified radius.
  double unconverged_limit = std::numeric_limits<double>::infinity();

  ArnoldiResult ar;

  const auto already_locked = [&](Complex lambda) {
    for (const auto& le : locked) {
      if (std::abs(le.lambda - lambda) <= kClusterTol * scale) return true;
    }
    return false;
  };

  for (std::size_t restart = 0; restart < kMaxRestarts; ++restart) {
    if (locked_vectors.size() / (2 * dim) + 2 >= dim) {
      // The locked subspace nearly exhausts the whole space: every
      // reachable eigenvalue has converged.
      break;
    }
    const ComplexVector v0 = random_start_vector(dim, rng);
    try {
      // Restart 0 searches at d; every later restart is a confirmation
      // at d_confirm that writes into restart 0's basis allocation.
      ar = arnoldi(*op, v0, restart == 0 ? d : d_confirm, locked_vectors,
                   std::move(ar.basis));
    } catch (const std::runtime_error&) {
      // Start vector collapsed into the locked subspace: the operator's
      // reachable space is exhausted — everything findable is found.
      ++result.restarts;
      break;
    }
    result.matvecs += ar.matvecs;
    ++result.restarts;

    const auto pairs = ritz_pairs(ar);
    std::vector<const RitzPair*> newly_locked;
    std::size_t new_in_disk = 0;
    unconverged_limit = std::numeric_limits<double>::infinity();
    for (const auto& p : pairs) {
      const double mu_abs = std::abs(p.value);
      if (mu_abs < 1e3 * la::kEps / rho0) continue;  // numerically zero
      const double dist = 1.0 / mu_abs;
      const bool converged = p.residual <= kRitzTol * mu_abs;
      if (!converged) {
        // A potential eigenvalue this close is not yet certain: the
        // clean radius must stay below its distance estimate.
        unconverged_limit = std::min(unconverged_limit, dist);
        continue;
      }
      const Complex lambda = theta + 1.0 / p.value;
      if (already_locked(lambda)) continue;
      locked.push_back({lambda, std::abs(lambda - theta)});
      newly_locked.push_back(&p);
      if (locked.back().distance <= rho * 1.0000001) ++new_in_disk;
    }

    // Deflation vectors are read only by a later restart's Arnoldi, so
    // the final restart forms none.  Its locked eigenvalues and the
    // radius below do not depend on them.
    const bool another_restart =
        !(restart + 1 >= min_restarts && new_in_disk == 0) &&
        restart + 1 < kMaxRestarts;
    if (another_restart) {
      // One allocation per restart, sized to the batch: lock_vector
      // then appends in place.
      locked_vectors.reserve(locked_vectors.size() +
                             newly_locked.size() * 2 * dim);
      for (const RitzPair* p : newly_locked) {
        lock_vector(locked_vectors, form_ritz_vector(ar, *p));
      }
    }

    std::sort(locked.begin(), locked.end(),
              [](const LockedEig& a, const LockedEig& b) {
                return a.distance < b.distance;
              });

    // Radius rules (paper Sec. III).
    rho = rho0;
    if (!locked.empty()) {
      if (locked.size() > opt.eigs_per_shift) {
        // Shrink: enclose exactly n_theta eigenvalues.
        const double inner = locked[opt.eigs_per_shift - 1].distance;
        const double outer = locked[opt.eigs_per_shift].distance;
        rho = std::min(rho, 0.5 * (inner + outer));
      } else if (locked.back().distance > rho) {
        // Expand to the farthest converging eigenvalue.
        rho = locked.back().distance * 1.0000001;
      }
    }
    // Certificate cap: nothing unseen may hide inside the disk.
    rho = std::min(rho, kRadiusSafety * unconverged_limit);

    if (!another_restart) break;
  }

  result.radius = rho;
  for (const auto& le : locked) {
    if (le.distance <= rho * 1.0000001) {
      result.eigenvalues.push_back(le.lambda);
    }
  }
  return result;
}

}  // namespace phes::core
