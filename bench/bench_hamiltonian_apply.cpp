// bench_hamiltonian_apply — ctest-registered BENCH-JSON A/B smoke of
// the library's kernels ("tuned") against the straight-line oracle
// loops of tests/reference_kernels.hpp ("reference") on the hot paths
// of the Hamiltonian solve:
//
//   - SmwShiftInvertOp::apply (shift-and-invert: resolvent tables +
//     split-plane C products vs. the original per-block divisions);
//   - ImplicitHamiltonianOp::apply (batched R/S multi-RHS solves +
//     fused J-symmetric block sweep vs. six LU passes);
//   - arnoldi orthogonalization at restart 0's d = core::kKrylovDim
//     (blocked CGS2 vs. vector-at-a-time MGS2), on a FIXED operator so
//     the delta is the Gram-Schmidt kernel alone.
//
// Measurements are best-of-N with tuned/reference interleaved inside
// each repetition, so machine noise hits both sides alike.  Exits
// non-zero when the library fails to at least match the oracle
// (speedup < 1.0) or when the two disagree numerically.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "phes/core/arnoldi.hpp"
#include "phes/core/single_shift.hpp"
#include "phes/hamiltonian/implicit_op.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/blas.hpp"
#include "phes/util/rng.hpp"
#include "phes/util/timer.hpp"
#include "reference_kernels.hpp"
#include "test_support.hpp"

namespace {

using namespace phes;
using la::Complex;
using la::ComplexVector;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

ComplexVector random_vector(std::size_t n, util::Rng& rng) {
  ComplexVector v(n);
  for (auto& x : v) x = Complex(rng.normal(), rng.normal());
  return v;
}

double max_rel_diff(const ComplexVector& a, const ComplexVector& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num = std::max(num, std::abs(a[i] - b[i]));
    den = std::max(den, std::abs(b[i]));
  }
  return den > 0.0 ? num / den : num;
}

/// Interleaved best-of-N: each rep times tuned then reference, so load
/// spikes penalize both.  Returns {tuned_best, reference_best}.
template <typename Tuned, typename Ref>
std::pair<double, double> ab_best(int reps, Tuned&& tuned, Ref&& ref) {
  double bt = 1e300, br = 1e300;
  for (int r = 0; r < reps; ++r) {
    {
      util::WallTimer t;
      tuned();
      bt = std::min(bt, t.seconds());
    }
    {
      util::WallTimer t;
      ref();
      br = std::min(br, t.seconds());
    }
  }
  return {bt, br};
}

void bench_operators(std::size_t states, std::size_t ports,
                     std::uint64_t seed) {
  const auto model = test::synthetic_model(1.08, seed, states, ports);
  const macromodel::SimoRealization realization(model);
  const std::size_t dim = 2 * realization.order();
  util::Rng rng(seed ^ 0x9e3779b9);
  const ComplexVector x = random_vector(dim, rng);
  ComplexVector yt(dim), yr(dim);

  // --- SMW shift-and-invert apply ------------------------------------
  const Complex theta(0.0, 2.0);
  const hamiltonian::SmwShiftInvertOp smw_tuned(realization, theta);
  const test::ReferenceSmwOp smw_ref(realization, theta);
  smw_tuned.apply(x, yt);
  smw_ref.apply(x, yr);
  expect(max_rel_diff(yt, yr) < 1e-9, "SMW apply agrees with the oracle");

  constexpr int kIters = 40;
  auto [smw_t, smw_r] = ab_best(
      7,
      [&] {
        for (int i = 0; i < kIters; ++i) smw_tuned.apply(x, yt);
      },
      [&] {
        for (int i = 0; i < kIters; ++i) smw_ref.apply(x, yr);
      });
  const double smw_speedup = smw_r / smw_t;
  expect(smw_speedup >= 1.0, "tuned SMW apply at least matches reference");
  std::printf(
      "BENCH {\"bench\":\"hamiltonian_apply\",\"op\":\"smw_apply\","
      "\"n\":%zu,\"p\":%zu,\"tuned_seconds\":%.6f,"
      "\"reference_seconds\":%.6f,\"speedup\":%.3f}\n",
      realization.order(), ports, smw_t, smw_r, smw_speedup);

  // --- implicit Hamiltonian apply ------------------------------------
  const hamiltonian::ImplicitHamiltonianOp imp_tuned(realization);
  const test::ReferenceImplicitOp imp_ref(realization);
  imp_tuned.apply(x, yt);
  imp_ref.apply(x, yr);
  expect(max_rel_diff(yt, yr) < 1e-10,
         "implicit apply agrees with the oracle");

  auto [imp_t, imp_r] = ab_best(
      7,
      [&] {
        for (int i = 0; i < kIters; ++i) imp_tuned.apply(x, yt);
      },
      [&] {
        for (int i = 0; i < kIters; ++i) imp_ref.apply(x, yr);
      });
  const double imp_speedup = imp_r / imp_t;
  expect(imp_speedup >= 1.0,
         "tuned implicit apply at least matches reference");
  std::printf(
      "BENCH {\"bench\":\"hamiltonian_apply\",\"op\":\"implicit_apply\","
      "\"n\":%zu,\"p\":%zu,\"tuned_seconds\":%.6f,"
      "\"reference_seconds\":%.6f,\"speedup\":%.3f}\n",
      realization.order(), ports, imp_t, imp_r, imp_speedup);

  // --- Arnoldi orthogonalization at d = core::kKrylovDim --------------
  // Same operator for both runs: the timing delta is the Gram-Schmidt
  // kernel (blocked CGS2 vs. vector-at-a-time MGS2), not the matvec.
  const std::size_t d = core::kKrylovDim;
  const ComplexVector v0 = core::random_start_vector(dim, rng);
  std::size_t steps_t = 0, steps_r = 0;
  auto [orth_t, orth_r] = ab_best(
      5,
      [&] {
        const auto ar = core::arnoldi(imp_tuned, v0, d, {});
        steps_t = ar.steps;
      },
      [&] {
        const auto ar = test::reference_arnoldi(imp_tuned, v0, d, {});
        steps_r = ar.steps;
      });
  expect(steps_t == steps_r, "both Arnoldi loops complete the same steps");
  const double orth_speedup = orth_r / orth_t;
  expect(orth_speedup >= 1.0,
         "tuned orthogonalization at least matches reference");
  std::printf(
      "BENCH {\"bench\":\"hamiltonian_apply\",\"op\":\"arnoldi\","
      "\"d\":%zu,\"n\":%zu,\"p\":%zu,\"tuned_seconds\":%.6f,"
      "\"reference_seconds\":%.6f,\"speedup\":%.3f}\n",
      d, realization.order(), ports, orth_t, orth_r, orth_speedup);
}

}  // namespace

int main() {
  // The acceptance shapes: d = kKrylovDim Krylov on models with p = 4
  // and p = 16 ports (n large enough that the apply and GS loops
  // dominate).
  bench_operators(256, 4, 2011);
  bench_operators(256, 16, 2012);

  if (failures > 0) {
    std::fprintf(stderr, "%d A/B expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("kernel A/B invariants hold\n");
  return 0;
}
