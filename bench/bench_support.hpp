#pragma once
// Shared infrastructure for the benchmark harnesses that regenerate the
// paper's evaluation (Table I, Fig. 6) and the ablations.
//
// Environment knobs (all optional):
//   PHES_BENCH_RUNS      repetitions per parallel measurement (default 2
//                        for Table I, 3 for Fig. 6; the paper used 20 —
//                        set PHES_PAPER_PROTOCOL=1 to match)
//   PHES_BENCH_THREADS   max thread count (default min(16, hardware))
//   PHES_BENCH_CASES     comma list of Table I case ids to run (1..12)
//   PHES_PAPER_PROTOCOL  1 => 20 runs per point, full thread grid

#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/pole_residue.hpp"

namespace phes::bench {

/// One Table I benchmark case: the paper's (n, p, Nl) plus the reported
/// timings, and the synthetic-substitute knobs that land the surrogate
/// model in the same regime.  The surrogates stand in for the paper's
/// proprietary IBM packaging models, which are not available.
struct CaseSpec {
  int id;
  std::size_t n;
  std::size_t p;
  std::size_t paper_nl;
  double paper_tau1;
  double paper_tau16_mean;
  double paper_tau16_max;
  double paper_eta16;
  double peak;        ///< generator target peak gain
  std::uint64_t seed;
};

/// The 12 cases of paper Table I.
inline const std::vector<CaseSpec>& table1_cases() {
  static const std::vector<CaseSpec> cases = {
      // id    n    p   Nl   tau1    t16m   t16M    eta    peak  seed
      {1, 1000, 20, 6, 13.763, 0.655, 0.844, 21.028, 1.10, 101},
      {2, 1000, 20, 42, 10.911, 0.521, 0.579, 20.957, 1.45, 102},
      {3, 1000, 20, 40, 11.729, 0.565, 0.639, 20.745, 1.45, 103},
      {4, 1980, 18, 0, 81.193, 5.020, 5.208, 16.175, 0.97, 104},
      {5, 2240, 56, 22, 33.972, 1.950, 2.121, 17.420, 1.12, 105},
      {6, 1728, 18, 0, 46.735, 3.022, 3.109, 15.463, 0.96, 106},
      {7, 1734, 83, 10, 22.836, 1.518, 1.563, 15.040, 1.06, 107},
      {8, 1792, 56, 104, 50.933, 3.627, 3.736, 14.044, 1.65, 108},
      {9, 1702, 56, 115, 14.206, 0.976, 1.055, 14.554, 1.68, 109},
      {10, 4150, 83, 114, 64.396, 5.171, 6.024, 12.453, 1.50, 110},
      {11, 1792, 56, 125, 54.470, 3.809, 3.911, 14.301, 1.70, 111},
      {12, 2432, 83, 46, 27.842, 1.955, 2.043, 14.242, 1.30, 112},
  };
  return cases;
}

/// Builds the synthetic surrogate for a case.
inline macromodel::PoleResidueModel build_case_model(const CaseSpec& c) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = c.p;
  spec.states = c.n;
  spec.omega_min = 1.0;
  spec.omega_max = 100.0;
  spec.target_peak_gain = c.peak;
  spec.seed = c.seed;
  spec.gain_tuning_grid = 96;  // keep generation cheap at n > 2000
  return macromodel::make_synthetic_model(spec);
}

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline bool paper_protocol() { return env_size("PHES_PAPER_PROTOCOL", 0) == 1; }

inline std::size_t bench_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return env_size("PHES_BENCH_THREADS",
                  std::min<std::size_t>(hw > 0 ? hw : 1, 16));
}

/// Parses PHES_BENCH_CASES ("1,5,10"); empty => all ids.
inline std::vector<int> selected_cases() {
  std::vector<int> ids;
  const char* v = std::getenv("PHES_BENCH_CASES");
  if (v == nullptr || *v == '\0') return ids;
  std::string s(v);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    ids.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return ids;
}

inline bool case_selected(int id) {
  const auto ids = selected_cases();
  if (ids.empty()) return true;
  for (int x : ids) {
    if (x == id) return true;
  }
  return false;
}

}  // namespace phes::bench
