// Tests for the Vector Fitting substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/passivity/sweep.hpp"
#include "phes/vf/vector_fitting.hpp"
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
  const double err = macromodel::max_relative_error(fit.model, samples);
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
  // Too few samples for the unknown count.
  const auto tiny = sample_model(ref, 0.2, 20.0, 3);
  opt = VectorFittingOptions{};
  opt.num_poles = 10;
  EXPECT_THROW(vector_fit(tiny, opt), std::invalid_argument);
  // 1 port, 7 samples, 12 poles: 2K = 14 covers the 13 unknowns of one
  // output, but the sigma system is 14 x 25.  The precondition must
  // name the shortfall instead of the QR failing on rows < cols; 13
  // samples (26 x 25) is the least that fits.
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
  passivity::SweepOptions sw;
  sw.omega_min = 0.05;
  sw.omega_max = 1.5 * fit.model.max_pole_magnitude();
  sw.initial_grid = 512;
  const auto sweep = passivity::sampling_passivity_check(simo, sw);
  // The reference peaks above 1, and an accurate fit must reproduce it.
  EXPECT_FALSE(sweep.passive);
  EXPECT_GT(sweep.worst_sigma, 1.0);
}

}  // namespace
}  // namespace phes
