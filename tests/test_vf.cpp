// Tests for the Vector Fitting substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/vf/vector_fitting.hpp"
#include "reference_kernels.hpp"
#include "sampling_sweep.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using macromodel::sample_model;
using vf::vector_fit;
using vf::VectorFittingOptions;

macromodel::PoleResidueModel reference_model(std::uint64_t seed,
                                             std::size_t states = 16,
                                             std::size_t ports = 2,
                                             double peak = 0.8) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak;
  spec.seed = seed;
  return macromodel::make_synthetic_model(spec);
}

TEST(VectorFitting, RecoversRationalModelNearExactly) {
  // Data generated by a rational model of matching order: VF must fit
  // to near machine precision.
  const auto ref = reference_model(1);
  const auto samples = sample_model(ref, 0.2, 20.0, 220);

  VectorFittingOptions opt;
  opt.num_poles = 8;  // 16 states over 2 columns => 8 per column
  const auto fit = vector_fit(samples, opt);
  EXPECT_LT(fit.rms_error, 1e-6) << "VF failed to recover rational data";
  EXPECT_TRUE(fit.model.is_stable());
}

TEST(VectorFitting, FitErrorMatchesIndependentEvaluation) {
  const auto ref = reference_model(2);
  const auto samples = sample_model(ref, 0.2, 20.0, 180);
  VectorFittingOptions opt;
  opt.num_poles = 8;
  const auto fit = vector_fit(samples, opt);
  const double err = test::max_relative_error(fit.model, samples);
  EXPECT_LT(err, 1e-4);
}

TEST(VectorFitting, ProducesRequestedStructure) {
  const auto ref = reference_model(3, 20, 3);
  const auto samples = sample_model(ref, 0.2, 20.0, 200);
  VectorFittingOptions opt;
  opt.num_poles = 7;  // odd: one real pole expected in the seed set
  const auto fit = vector_fit(samples, opt);
  EXPECT_EQ(fit.model.ports(), 3u);
  for (const auto& col : fit.model.columns()) {
    EXPECT_LE(col.order(), 7u + 1u);  // relocation may merge a pair
    EXPECT_GE(col.order(), 5u);
  }
}

TEST(VectorFitting, StabilityEnforcement) {
  // Underfitting (too few poles) stresses the relocation step; the
  // result must still be stable when enforcement is on.
  const auto ref = reference_model(4, 24, 2);
  const auto samples = sample_model(ref, 0.2, 20.0, 160);
  VectorFittingOptions opt;
  opt.num_poles = 6;  // fewer than the data's 12 per column
  opt.iterations = 8;
  const auto fit = vector_fit(samples, opt);
  EXPECT_TRUE(fit.model.is_stable());
}

TEST(VectorFitting, DeterministicForSameInput) {
  const auto ref = reference_model(5);
  const auto samples = sample_model(ref, 0.2, 20.0, 150);
  VectorFittingOptions opt;
  opt.num_poles = 8;
  const auto f1 = vector_fit(samples, opt);
  const auto f2 = vector_fit(samples, opt);
  EXPECT_DOUBLE_EQ(f1.rms_error, f2.rms_error);
  for (double w : {0.5, 3.0, 12.0}) {
    EXPECT_LT(test::max_abs_diff(f1.model.eval(w), f2.model.eval(w)),
              1e-14);
  }
}

TEST(VectorFitting, ParallelColumnsMatchSerialExactly) {
  // Columns are independent fits; running them on the thread pool must
  // not change a single bit of the result.
  const auto ref = reference_model(8, 24, 4);
  const auto samples = sample_model(ref, 0.2, 20.0, 200);
  VectorFittingOptions opt;
  opt.num_poles = 6;
  opt.threads = 1;
  const auto serial = vector_fit(samples, opt);
  opt.threads = 4;
  const auto parallel = vector_fit(samples, opt);

  EXPECT_DOUBLE_EQ(serial.rms_error, parallel.rms_error);
  EXPECT_EQ(serial.iterations_used, parallel.iterations_used);
  ASSERT_EQ(serial.column_rms.size(), parallel.column_rms.size());
  for (std::size_t c = 0; c < serial.column_rms.size(); ++c) {
    EXPECT_DOUBLE_EQ(serial.column_rms[c], parallel.column_rms[c]);
  }
  for (double w : {0.5, 3.0, 12.0}) {
    EXPECT_EQ(test::max_abs_diff(serial.model.eval(w), parallel.model.eval(w)),
              0.0);
  }
}

TEST(VectorFitting, ThreadCountIsCappedByColumns) {
  // More workers than columns must be harmless.
  const auto ref = reference_model(9, 12, 2);
  const auto samples = sample_model(ref, 0.2, 20.0, 120);
  VectorFittingOptions opt;
  opt.num_poles = 6;
  opt.threads = 16;
  const auto fit = vector_fit(samples, opt);
  EXPECT_EQ(fit.model.ports(), 2u);
  EXPECT_TRUE(fit.model.is_stable());
}

TEST(VectorFitting, RejectsBadInputs) {
  const auto ref = reference_model(6, 12, 2);
  const auto samples = sample_model(ref, 0.2, 20.0, 30);
  VectorFittingOptions opt;
  opt.num_poles = 1;
  EXPECT_THROW(vector_fit(samples, opt), std::invalid_argument);
  opt = VectorFittingOptions{};
  opt.iterations = 0;
  EXPECT_THROW(vector_fit(samples, opt), std::invalid_argument);
  // The sweep count is bounded: a column that never settles runs every
  // requested sweep, and a fit cannot be cancelled.
  opt.iterations = vf::kMaxIterations + 1;
  EXPECT_THROW(vector_fit(samples, opt), std::invalid_argument);
  opt.iterations = 1000000000;
  EXPECT_THROW(vector_fit(samples, opt), std::invalid_argument);
  opt.iterations = vf::kMaxIterations;
  EXPECT_NO_THROW((void)vector_fit(samples, opt));
  // Too few samples for the unknown count.
  const auto tiny = sample_model(ref, 0.2, 20.0, 3);
  opt = VectorFittingOptions{};
  opt.num_poles = 10;
  EXPECT_THROW(vector_fit(tiny, opt), std::invalid_argument);
  // 1 port, 7 samples, 12 poles: 2K = 14 covers the 13 unknowns of one
  // output, but its sigma block is 14 x 26.  The precondition must
  // name the shortfall instead of the QR failing on rows < cols; 13
  // samples (26 x 26) is the least that fits.
  const auto one_port = reference_model(4, 12, 1);
  opt = VectorFittingOptions{};
  opt.num_poles = 12;
  try {
    (void)vector_fit(sample_model(one_port, 0.2, 20.0, 7), opt);
    ADD_FAILURE() << "7 samples for 12 poles must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "vector_fit: 7 samples are too few for a 12-pole, "
                 "1-port fit (need at least 13)");
  }
  EXPECT_NO_THROW((void)vector_fit(sample_model(one_port, 0.2, 20.0, 13), opt));
  // 4 ports, 12 samples, 12 poles: a dense 96 x 64 sigma system would
  // have rows enough, but each output's 24 x 26 block does not.  Every
  // port count needs num_poles + 1 samples.
  const auto four_port = reference_model(4, 48, 4);
  try {
    (void)vector_fit(sample_model(four_port, 0.2, 20.0, 12), opt);
    ADD_FAILURE() << "12 samples for 12 poles must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "vector_fit: 12 samples are too few for a 12-pole, "
                 "4-port fit (need at least 13)");
  }
}

std::vector<la::Complex> column_poles(const macromodel::PoleResidueColumn& c) {
  std::vector<la::Complex> poles;
  for (const auto& t : c.real_terms) poles.emplace_back(t.pole, 0.0);
  for (const auto& t : c.complex_terms) poles.push_back(t.pole);
  return poles;
}

TEST(VectorFitting, FastSigmaMatchesDenseOracle) {
  // The fast sigma solve eliminates each output's residues exactly, so
  // it has the dense system's minimizer and the fits differ by
  // rounding only — where the minimizer is unique.  The gen kinds
  // with fewer true states per column than poles (3 ports at order 24,
  // 4 ports at order 24 and 36) are excluded: their sigma system is
  // rank-deficient, and the surplus poles land wherever rounding puts
  // them, under either solve.  Kept: the exactly fitted kinds (2-port
  // order 24, 3-port order 36, 4-port order 48) and the under-fitted
  // ones (more true states per column than poles).
  VectorFittingOptions opt;
  opt.num_poles = 12;
  std::size_t fits = 0;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::size_t ports = 2 + i % 3;
    const std::size_t states = 24 + 12 * (i % 4);
    if (states / ports < opt.num_poles) continue;
    const auto samples = test::gen_samples(i);
    const auto fast = vector_fit(samples, opt);
    const auto dense = vf::detail::vector_fit_with(
        samples, opt, &test::reference_dense_sigma_solve);
    ++fits;

    ASSERT_EQ(fast.column_rms.size(), dense.column_rms.size());
    for (std::size_t c = 0; c < fast.column_rms.size(); ++c) {
      const double a = fast.column_rms[c], b = dense.column_rms[c];
      EXPECT_TRUE(std::abs(a - b) <= 1e-8 * std::abs(b) ||
                  std::abs(a - b) <= 1e-12)
          << "member " << i << " column " << c << ": rms " << a
          << " vs dense " << b;
      const auto pa = column_poles(fast.model.columns()[c]);
      const auto pb = column_poles(dense.model.columns()[c]);
      ASSERT_EQ(pa.size(), pb.size()) << "member " << i << " column " << c;
      for (const la::Complex& q : pb) {
        double best = 1e300;
        for (const la::Complex& z : pa) best = std::min(best, std::abs(z - q));
        EXPECT_LE(best, 1e-8 * std::abs(q))
            << "member " << i << " column " << c << ": dense pole " << q;
      }
    }
  }
  EXPECT_EQ(fits, 18u);
}

TEST(VectorFitting, EndToEndPipelineWithPassivityCheck) {
  // The full workflow of the paper's introduction: tabulated data ->
  // VF macromodel -> structured realization -> passivity screen.
  const auto ref = reference_model(7, 20, 2, 1.05);  // slightly non-passive
  const auto samples = sample_model(ref, 0.2, 20.0, 240);
  VectorFittingOptions opt;
  opt.num_poles = 10;
  const auto fit = vector_fit(samples, opt);
  ASSERT_LT(fit.rms_error, 1e-4);

  const macromodel::SimoRealization simo(fit.model);
  test::SweepOptions sw;
  sw.omega_min = 0.05;
  sw.omega_max = 1.5 * fit.model.max_pole_magnitude();
  sw.initial_grid = 512;
  const auto sweep = test::sampling_passivity_check(simo, sw);
  // The reference peaks above 1, and an accurate fit must reproduce it.
  EXPECT_FALSE(sweep.passive);
  EXPECT_GT(sweep.worst_sigma, 1.0);
}

}  // namespace
}  // namespace phes
