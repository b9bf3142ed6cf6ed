// Edge cases and stress scenarios across the pipeline: degenerate model
// structures, repeated poles, near-threshold spectra, tiny systems, and
// solver behaviour at band boundaries.

#include <gtest/gtest.h>

#include <cmath>

#include "phes/core/solver.hpp"
#include "phes/hamiltonian/dense.hpp"
#include "phes/la/schur.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "hamiltonian_analysis.hpp"
#include "test_support.hpp"

namespace phes {
namespace {

using la::Complex;
using macromodel::PoleResidueColumn;
using macromodel::PoleResidueModel;
using macromodel::SimoRealization;

la::RealVector dense_truth(const SimoRealization& simo, double scale) {
  const auto m = hamiltonian::build_scattering_hamiltonian(simo.to_dense());
  return test::extract_imaginary_frequencies(
      la::real_eigenvalues(m), 1e-8, scale);
}

core::SolverResult solve(const SimoRealization& simo,
                         std::size_t threads = 2) {
  core::ParallelHamiltonianEigensolver solver(simo);
  core::SolverOptions opt;
  opt.threads = threads;
  return solver.solve(opt);
}

TEST(EdgeCases, SisoModelWorksEndToEnd) {
  // Single-port model: p = 1, SIMO degenerates to SISO.
  macromodel::RealMatrix d{{0.2}};
  std::vector<PoleResidueColumn> cols(1);
  cols[0].complex_terms.push_back(
      {Complex(-0.05, 2.0), {Complex(0.8, 0.3)}});
  cols[0].complex_terms.push_back(
      {Complex(-0.2, 5.0), {Complex(-0.5, 0.6)}});
  cols[0].real_terms.push_back({-1.0, {0.4}});
  const PoleResidueModel model(d, cols);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-5 * model.max_pole_magnitude()));
}

TEST(EdgeCases, RealPolesOnlyModel) {
  // No complex pairs at all: A is purely diagonal.
  macromodel::RealMatrix d(2, 2);
  d(0, 0) = 0.1;
  d(1, 1) = -0.1;
  std::vector<PoleResidueColumn> cols(2);
  util::Rng rng(8);
  for (std::size_t k = 0; k < 2; ++k) {
    for (int i = 0; i < 6; ++i) {
      cols[k].real_terms.push_back(
          {-0.5 * (i + 1), {2.0 * rng.normal(), 2.0 * rng.normal()}});
    }
  }
  const PoleResidueModel model(d, cols);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-5 * model.max_pole_magnitude()));
}

TEST(EdgeCases, RepeatedPolesAcrossColumns) {
  // Identical pole sets in every column: the Hamiltonian spectrum has
  // clustered eigenvalues, stressing the dedup/cluster logic.
  macromodel::RealMatrix d(3, 3);
  for (int i = 0; i < 3; ++i) d(i, i) = 0.15;
  std::vector<PoleResidueColumn> cols(3);
  util::Rng rng(9);
  for (std::size_t k = 0; k < 3; ++k) {
    for (int i = 0; i < 3; ++i) {
      macromodel::ComplexPoleTerm t;
      t.pole = Complex(-0.1 * (i + 1), 1.0 + i);  // same poles per column
      t.residue.resize(3);
      for (auto& r : t.residue) r = Complex(rng.normal(), rng.normal());
      cols[k].complex_terms.push_back(std::move(t));
    }
  }
  const PoleResidueModel model(d, cols);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-4 * model.max_pole_magnitude()));
}

TEST(EdgeCases, StronglyUnevenColumnOrders) {
  // One column holds almost all the dynamics.
  macromodel::RealMatrix d(2, 2);
  d(0, 0) = 0.1;
  d(1, 1) = 0.1;
  std::vector<PoleResidueColumn> cols(2);
  util::Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    macromodel::ComplexPoleTerm t;
    t.pole = Complex(-0.05 * (i + 1), 0.8 + 0.5 * i);
    t.residue = {Complex(rng.normal(), rng.normal()),
                 Complex(rng.normal(), rng.normal())};
    cols[0].complex_terms.push_back(std::move(t));
  }
  cols[1].real_terms.push_back({-2.0, {0.3, 0.7}});
  const PoleResidueModel model(d, cols);
  const SimoRealization simo(model);
  EXPECT_EQ(simo.order(), 21u);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-5 * model.max_pole_magnitude()));
}

TEST(EdgeCases, TinySystem) {
  // Smallest meaningful system: one pair, one port (2 states, 4x4
  // Hamiltonian).
  macromodel::RealMatrix d{{0.1}};
  std::vector<PoleResidueColumn> cols(1);
  cols[0].complex_terms.push_back({Complex(-0.02, 1.0), {Complex(1.2, 0.0)}});
  const PoleResidueModel model(d, cols);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo, 1);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-6 * model.max_pole_magnitude()));
}

TEST(EdgeCases, GrazingSpectrumJustBelowThreshold) {
  // Peak gain 0.999: eigenvalues hover near the axis without touching.
  macromodel::SyntheticModelSpec spec;
  spec.ports = 3;
  spec.states = 30;
  spec.target_peak_gain = 0.999;
  spec.seed = 77;
  const auto model = macromodel::make_synthetic_model(spec);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_EQ(res.crossings.size(), truth.size());
}

TEST(EdgeCases, SeedChangesNotResult) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = 3;
  spec.states = 30;
  spec.target_peak_gain = 1.07;
  spec.seed = 55;
  const auto model = macromodel::make_synthetic_model(spec);
  const SimoRealization simo(model);
  core::ParallelHamiltonianEigensolver solver(simo);
  la::RealVector reference;
  for (std::uint64_t seed : {1u, 2u, 99u}) {
    core::SolverOptions opt;
    opt.threads = 2;
    opt.seed = seed;
    const auto res = solver.solve(opt);
    if (reference.empty()) {
      reference = res.crossings;
    } else {
      EXPECT_TRUE(test::frequencies_match(
          res.crossings, reference, 1e-5 * model.max_pole_magnitude()))
          << "solver result depends on the RNG seed";
    }
  }
}

TEST(EdgeCases, ZeroDTermModel) {
  // D = 0 keeps R = -I, S = -I well conditioned; pipeline must work.
  macromodel::SyntheticModelSpec spec;
  spec.ports = 2;
  spec.states = 20;
  spec.target_peak_gain = 1.05;
  spec.d_norm = 0.0;
  spec.seed = 66;
  const auto model = macromodel::make_synthetic_model(spec);
  const SimoRealization simo(model);
  const auto truth = dense_truth(simo, model.max_pole_magnitude());
  const auto res = solve(simo);
  EXPECT_TRUE(test::frequencies_match(res.crossings, truth,
                                      1e-5 * model.max_pole_magnitude()));
}

}  // namespace
}  // namespace phes
