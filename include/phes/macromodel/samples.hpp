#pragma once
// Tabulated frequency responses — the raw-data form macromodels are
// identified from (paper Sec. II: "frequency samples of the scattering
// matrix ... via electromagnetic simulation or direct measurement").
// This is the input format of the Vector Fitting substrate.

#include <cstddef>
#include <vector>

#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"

namespace phes::macromodel {

class PoleResidueModel;

/// Samples {omega_k, H(j omega_k)} of a p x p transfer matrix.
struct FrequencySamples {
  la::RealVector omega;                ///< strictly increasing, rad/s
  std::vector<la::ComplexMatrix> h;    ///< one p x p matrix per omega

  [[nodiscard]] std::size_t count() const noexcept { return omega.size(); }
  [[nodiscard]] std::size_t ports() const noexcept {
    return h.empty() ? 0 : h.front().rows();
  }

  /// Validates monotone frequencies and consistent matrix sizes.
  void check_consistency() const;
};

/// Sample a model on a log-spaced grid of `count` points.
[[nodiscard]] FrequencySamples sample_model(const PoleResidueModel& model,
                                            double omega_min,
                                            double omega_max,
                                            std::size_t count);

}  // namespace phes::macromodel
