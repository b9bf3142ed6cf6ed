#include "phes/core/intervals.hpp"

#include <algorithm>
#include <cmath>

#include "phes/core/single_shift.hpp"
#include "phes/util/check.hpp"

namespace phes::core {

IntervalScheduler::IntervalScheduler(double omega_max,
                                     std::size_t n_intervals,
                                     double min_interval_width)
    : min_width_(min_interval_width) {
  util::check(omega_max > 0.0, "IntervalScheduler: empty band");
  util::check(n_intervals >= 2, "IntervalScheduler: need >= 2 intervals");
  util::check(min_interval_width > 0.0,
              "IntervalScheduler: resolution must be positive");

  // Equal subdivision; shifts centered except at the band extrema
  // (paper Sec. IV-A).
  const double width = omega_max / static_cast<double>(n_intervals);
  std::vector<TentativeInterval> initial(n_intervals);
  for (std::size_t nu = 0; nu < n_intervals; ++nu) {
    auto& iv = initial[nu];
    iv.lo = width * static_cast<double>(nu);
    iv.hi = (nu + 1 == n_intervals) ? omega_max : iv.lo + width;
    if (nu == 0) {
      iv.shift = iv.lo;
    } else if (nu + 1 == n_intervals) {
      iv.shift = iv.hi;
    } else {
      iv.shift = 0.5 * (iv.lo + iv.hi);
    }
    iv.id = next_id_++;
  }
  // Queue order per Eqs. 13-15: extrema first, then left to right.
  tentative_.push_back(initial.front());
  tentative_.push_back(initial.back());
  for (std::size_t nu = 1; nu + 1 < n_intervals; ++nu) {
    tentative_.push_back(initial[nu]);
  }
}

IntervalScheduler::IntervalScheduler(std::vector<TentativeInterval> intervals,
                                     double min_interval_width)
    : min_width_(min_interval_width) {
  util::check(min_interval_width > 0.0,
              "IntervalScheduler: resolution must be positive");
  for (auto& iv : intervals) {
    util::check(iv.lo <= iv.shift && iv.shift <= iv.hi,
                "IntervalScheduler: shift outside its interval");
    iv.id = next_id_++;
    tentative_.push_back(iv);
  }
}

std::optional<TentativeInterval> IntervalScheduler::acquire() {
  if (tentative_.empty()) return std::nullopt;
  // Intervals are pairwise disjoint and each holds exactly its own
  // shift, so the head of the queue always satisfies the freeness
  // condition (Eq. 20).
  TentativeInterval iv = tentative_.front();
  tentative_.pop_front();
  ++in_flight_;
  return iv;
}

void IntervalScheduler::complete(const TentativeInterval& interval,
                                 double rho,
                                 la::ComplexVector eigenvalues) {
  util::require(in_flight_ > 0, "IntervalScheduler::complete: not in flight");
  --in_flight_;
  util::check(rho > 0.0, "IntervalScheduler::complete: radius must be > 0");

  CompletedDisk disk;
  disk.center = interval.shift;
  disk.radius = rho;
  disk.eigenvalues = std::move(eigenvalues);
  completed_.push_back(std::move(disk));

  const double lo_cov = interval.shift - rho;  // covered range
  const double hi_cov = interval.shift + rho;

  // Split rule (Eqs. 25-28), generalized to off-center shifts: the
  // uncovered outer portions become new tentative intervals.  Portions
  // thinner than the resolution are dropped — they are covered up to
  // the solver's frequency tolerance.
  const auto spawn = [&](double lo, double hi) {
    if (hi - lo <= min_width_) return;
    TentativeInterval iv;
    iv.lo = lo;
    iv.hi = hi;
    iv.shift = 0.5 * (lo + hi);
    iv.id = next_id_++;
    tentative_.push_back(iv);
  };
  if (lo_cov > interval.lo) spawn(interval.lo, lo_cov);
  if (hi_cov < interval.hi) spawn(hi_cov, interval.hi);

  // Cover rule (Eq. 24): tentative shifts swallowed by the disk are
  // useless; delete their intervals' covered parts.  A partially
  // covered tentative interval is re-spawned as its uncovered remains
  // so band coverage is preserved.
  std::deque<TentativeInterval> kept;
  for (const auto& iv : tentative_) {
    const bool shift_swallowed = iv.shift >= lo_cov && iv.shift <= hi_cov;
    const bool overlaps = iv.hi > lo_cov && iv.lo < hi_cov;
    if (!shift_swallowed && !overlaps) {
      kept.push_back(iv);
      continue;
    }
    if (shift_swallowed) ++eliminated_;
    // Keep the uncovered remains (possibly both sides).
    if (iv.lo < lo_cov) {
      TentativeInterval left;
      left.lo = iv.lo;
      left.hi = std::min(iv.hi, lo_cov);
      if (left.hi - left.lo > min_width_) {
        const bool keeps_shift = !shift_swallowed && iv.shift < lo_cov;
        left.shift =
            keeps_shift ? iv.shift : 0.5 * (left.lo + left.hi);
        left.shift = std::clamp(left.shift, left.lo, left.hi);
        left.id = next_id_++;
        kept.push_back(left);
      }
    }
    if (iv.hi > hi_cov) {
      TentativeInterval right;
      right.lo = std::max(iv.lo, hi_cov);
      right.hi = iv.hi;
      if (right.hi - right.lo > min_width_) {
        const bool keeps_shift = !shift_swallowed && iv.shift > hi_cov;
        right.shift =
            keeps_shift ? iv.shift : 0.5 * (right.lo + right.hi);
        right.shift = std::clamp(right.shift, right.lo, right.hi);
        right.id = next_id_++;
        kept.push_back(right);
      }
    }
  }
  tentative_ = std::move(kept);
}

la::ComplexVector merge_disk_eigenvalues(
    const std::vector<CompletedDisk>& disks, double scale) {
  struct Copy {
    la::Complex lambda;
    double distance;  ///< to its own disk's center
  };
  std::vector<Copy> copies;
  for (const CompletedDisk& disk : disks) {
    const la::Complex theta(0.0, disk.center);
    for (const la::Complex& lambda : disk.eigenvalues) {
      copies.push_back({lambda, std::abs(lambda - theta)});
    }
  }
  // Stable: equally near copies keep the disks' order.
  std::stable_sort(copies.begin(), copies.end(),
                   [](const Copy& a, const Copy& b) {
                     return a.distance < b.distance;
                   });

  // Nearest copies first: a copy is kept unless a kept one lies within
  // the cluster radius.  `merged` stays sorted by imaginary part, so
  // the search scans a window.
  const double tol = kClusterTol * scale;
  const auto by_imag = [](const la::Complex& a, double im) {
    return a.imag() < im;
  };
  la::ComplexVector merged;
  for (const Copy& c : copies) {
    auto it = std::lower_bound(merged.begin(), merged.end(),
                               c.lambda.imag() - tol, by_imag);
    bool duplicate = false;
    for (; it != merged.end() && it->imag() <= c.lambda.imag() + tol; ++it) {
      if (std::abs(*it - c.lambda) <= tol) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      merged.insert(std::lower_bound(merged.begin(), merged.end(),
                                     c.lambda.imag(), by_imag),
                    c.lambda);
    }
  }
  return merged;
}

}  // namespace phes::core
