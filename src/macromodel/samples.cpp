#include "phes/macromodel/samples.hpp"

#include <cmath>

#include "phes/macromodel/pole_residue.hpp"
#include "phes/util/check.hpp"

namespace phes::macromodel {

void FrequencySamples::check_consistency() const {
  util::check(omega.size() == h.size(),
              "FrequencySamples: omega/h length mismatch");
  for (std::size_t k = 1; k < omega.size(); ++k) {
    util::check(omega[k] > omega[k - 1],
                "FrequencySamples: frequencies must increase strictly");
  }
  for (const auto& m : h) {
    util::check(m.rows() == ports() && m.cols() == ports(),
                "FrequencySamples: inconsistent matrix sizes");
  }
}

FrequencySamples sample_model(const PoleResidueModel& model, double omega_min,
                              double omega_max, std::size_t count) {
  util::check(count >= 2 && omega_max > omega_min && omega_min > 0.0,
              "sample_model: invalid grid");
  FrequencySamples out;
  out.omega.resize(count);
  out.h.reserve(count);
  const double log_lo = std::log(omega_min);
  const double log_hi = std::log(omega_max);
  for (std::size_t k = 0; k < count; ++k) {
    const double w = std::exp(log_lo + (log_hi - log_lo) *
                                           static_cast<double>(k) /
                                           static_cast<double>(count - 1));
    out.omega[k] = w;
    out.h.push_back(model.eval(w));
  }
  return out;
}

}  // namespace phes::macromodel
