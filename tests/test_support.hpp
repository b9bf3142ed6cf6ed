#pragma once
// Shared helpers for the PHES test suite: random matrices, spectrum
// comparison, model-vs-samples error, the phes-samples writer, the
// seeded synthetic-model fixtures used by the engine/pipeline/server
// tests and the session-reuse bench, and metrics-snapshot readers.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "phes/la/blas.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/la/matrix.hpp"
#include "phes/la/types.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/pole_residue.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/server/storage.hpp"
#include "phes/util/check.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/rng.hpp"
#include "phes/util/sync.hpp"

namespace phes::test {

using la::Complex;
using la::ComplexMatrix;
using la::ComplexVector;
using la::RealMatrix;
using la::RealVector;

/// Uniform integer in [0, n) (modulo reduction: slightly biased, which
/// the seeded problem-size draws do not care about).
inline std::uint64_t below(util::Rng& rng, std::uint64_t n) {
  return rng() % n;
}

/// Random real matrix with i.i.d. standard normal entries.
inline RealMatrix random_real_matrix(std::size_t rows, std::size_t cols,
                                     util::Rng& rng) {
  RealMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

/// Random complex matrix with i.i.d. standard complex normal entries.
inline ComplexMatrix random_complex_matrix(std::size_t rows, std::size_t cols,
                                           util::Rng& rng) {
  ComplexMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m(i, j) = Complex(rng.normal(), rng.normal());
    }
  }
  return m;
}

/// Random matrix with the exact-zero block pattern of vector_fit's
/// sigma least squares.  Rows come in (Re, Im) pairs, sample-major and
/// port-minor; the rows of port i are nonzero only in port i's column
/// block — random basis values, then the d column: 1 on Re rows, exact
/// 0 on Im rows — and in the shared sigma tail right of all blocks.
/// Blocks are (cols - ports) / (ports + 1) + 1 wide and the tail takes
/// the remaining columns, so 2Kp x (p(nb+1) + nb) is exactly the dense
/// sigma system of a p-port fit with nb poles over K samples, and
/// 2K x (2nb + 2) with one "port" is the fast solve's per-output block
/// (its last tail column the sample values H_i).
inline RealMatrix sigma_pattern_matrix(std::size_t rows, std::size_t cols,
                                       std::size_t ports, util::Rng& rng) {
  const std::size_t block = (cols - ports) / (ports + 1) + 1;
  const std::size_t tail0 = ports * block;
  RealMatrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    const bool im = r % 2 == 1;
    const std::size_t base = (r / 2 % ports) * block;
    for (std::size_t b = 0; b + 1 < block; ++b) m(r, base + b) = rng.normal();
    m(r, base + block - 1) = im ? 0.0 : 1.0;
    for (std::size_t c = tail0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

/// Random Hermitian matrix.
inline ComplexMatrix random_hermitian_matrix(std::size_t n, util::Rng& rng) {
  ComplexMatrix a = random_complex_matrix(n, n, rng);
  ComplexMatrix h(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      h(i, j) = 0.5 * (a(i, j) + std::conj(a(j, i)));
    }
  }
  return h;
}

/// Greedily matches two unordered spectra and returns the max pairwise
/// distance; large when the sets differ.
inline double spectrum_distance(ComplexVector a, ComplexVector b) {
  if (a.size() != b.size()) return 1e300;
  double worst = 0.0;
  for (const Complex& x : a) {
    double best = 1e300;
    std::size_t best_j = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const double d = std::abs(x - b[j]);
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    worst = std::max(worst, best);
    b.erase(b.begin() + static_cast<std::ptrdiff_t>(best_j));
  }
  return worst;
}

/// || A - B ||_max
template <typename T>
double max_abs_diff(const la::Matrix<T>& a, const la::Matrix<T>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

/// Worst-case relative fit error  max_k ||Ha(jw_k) - Hb(jw_k)||_F /
/// max_k ||Hb(jw_k)||_F between a model and reference samples.
inline double max_relative_error(
    const macromodel::PoleResidueModel& model,
    const macromodel::FrequencySamples& reference) {
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t k = 0; k < reference.count(); ++k) {
    const auto hm = model.eval(reference.omega[k]);
    double err = 0.0;
    for (std::size_t i = 0; i < hm.rows(); ++i) {
      for (std::size_t j = 0; j < hm.cols(); ++j) {
        err += std::norm(hm(i, j) - reference.h[k](i, j));
      }
    }
    worst = std::max(worst, std::sqrt(err));
    scale = std::max(scale, la::frobenius_norm(reference.h[k]));
  }
  return scale > 0.0 ? worst / scale : worst;
}

/// Write samples in the phes-samples v1 text format that
/// macromodel::load_samples reads (%.17g values, so a round trip is
/// exact).  Throws on inconsistent input.
inline void save_samples(const macromodel::FrequencySamples& samples,
                         std::ostream& os) {
  samples.check_consistency();
  const std::size_t p = samples.ports();
  os << "# phes-samples v1\n";
  os << "ports " << p << '\n';
  os << "points " << samples.count() << '\n';
  os << std::setprecision(17);
  for (std::size_t k = 0; k < samples.count(); ++k) {
    os << "omega " << samples.omega[k] << '\n';
    for (std::size_t i = 0; i < p; ++i) {
      for (std::size_t j = 0; j < p; ++j) {
        const auto& h = samples.h[k](i, j);
        os << h.real() << ' ' << h.imag();
        os << (j + 1 < p ? ' ' : '\n');
      }
    }
  }
  util::require(os.good(), "save_samples: stream write failed");
}

inline void save_samples_file(const macromodel::FrequencySamples& samples,
                              const std::string& path) {
  std::ofstream os(path);
  util::require(os.is_open(), "save_samples_file: cannot open " + path);
  save_samples(samples, os);
}

/// Set-compare two sorted frequency lists within an absolute tolerance.
inline bool frequencies_match(const RealVector& a, const RealVector& b,
                              double tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

// ---- Seeded model fixtures --------------------------------------------
// One source of truth for the synthetic models the engine, pipeline,
// server, and bench suites exercise; seeds select reproducible model
// instances, peak gain selects passive (< 1) vs violating (> 1).

/// Seeded synthetic pole-residue model with the given peak gain.
inline macromodel::PoleResidueModel synthetic_model(double peak_gain,
                                                    std::uint64_t seed,
                                                    std::size_t states = 36,
                                                    std::size_t ports = 3) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = states;
  spec.target_peak_gain = peak_gain;
  spec.seed = seed;
  return macromodel::make_synthetic_model(spec);
}

/// Samples of a deliberately non-passive 2-port scattering model (unit
/// singular-value crossings guaranteed by peak gain 1.05).
inline macromodel::FrequencySamples non_passive_samples(
    std::uint64_t seed, std::size_t states = 24) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = 2;
  spec.states = states;
  spec.omega_min = 1.0;
  spec.omega_max = 20.0;
  spec.target_peak_gain = 1.05;
  spec.seed = seed;
  const auto model = macromodel::make_synthetic_model(spec);
  return sample_model(model, 0.3, 60.0, 160);
}

/// Samples of `phes_pipeline gen` member i (file case<i+1>.s<p>p) before
/// its Touchstone round trip: p = 2 + i mod 3 ports, order
/// 24 + 12 (i mod 4), peak gain 1.04 (even i) or 0.95 (odd i), band
/// 1-30 rad/s, generator seed 2011 + i, 200 samples over 0.3-90 rad/s.
inline macromodel::FrequencySamples gen_samples(std::size_t i) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = 2 + i % 3;
  spec.states = 24 + 12 * (i % 4);
  spec.omega_min = 1.0;
  spec.omega_max = 30.0;
  spec.target_peak_gain = i % 2 == 0 ? 1.04 : 0.95;
  spec.seed = 2011 + i;
  return sample_model(macromodel::make_synthetic_model(spec), 0.3, 90.0,
                      200);
}

/// Samples of a safely passive 2-port model (peak gain 0.9).
inline macromodel::FrequencySamples passive_samples(std::uint64_t seed,
                                                    std::size_t states = 20) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = 2;
  spec.states = states;
  spec.target_peak_gain = 0.9;
  spec.seed = seed;
  const auto model = macromodel::make_synthetic_model(spec);
  return sample_model(model, 0.3, 40.0, 140);
}

/// Small sampled p-port model for Touchstone round-trip tests.
inline macromodel::FrequencySamples sampled_synthetic(std::size_t ports) {
  macromodel::SyntheticModelSpec spec;
  spec.ports = ports;
  spec.states = 6 * ports;
  spec.seed = 17;
  const auto model = macromodel::make_synthetic_model(spec);
  return sample_model(model, 0.5, 20.0, 12);
}

/// Path of a committed golden fixture (tests/data); PHES_TEST_DATA_DIR
/// is injected by CMake so tests run from any build directory.
inline std::string fixture_path(const std::string& name) {
#ifdef PHES_TEST_DATA_DIR
  return std::string(PHES_TEST_DATA_DIR) + "/" + name;
#else
  return "tests/data/" + name;
#endif
}

/// RAII scratch directory under the system temp dir, unique per
/// (tag, pid, instance); any pre-existing leftover is cleared so a
/// crashed earlier run cannot leak state into this one.
struct TempDir {
  explicit TempDir(const char* tag) {
    static std::atomic<int> counter{0};
    path = (std::filesystem::temp_directory_path() /
            ("phes_test_" + std::string(tag) + "_" +
             std::to_string(::getpid()) + "_" +
             std::to_string(++counter)))
               .string();
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// A counter or gauge of a metrics snapshot; an unregistered name reads
/// 0, like an instrument that never moved.
inline std::uint64_t counter(const obs::MetricsSnapshot& snapshot,
                             const std::string& name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}
inline std::int64_t gauge(const obs::MetricsSnapshot& snapshot,
                          const std::string& name) {
  const auto it = snapshot.gauges.find(name);
  return it == snapshot.gauges.end() ? 0 : it->second;
}

/// How many of `summaries` are in `state`.
inline std::size_t count_state(
    const std::vector<server::JobSummary>& summaries,
    server::JobState state) {
  return static_cast<std::size_t>(
      std::count_if(summaries.begin(), summaries.end(),
                    [state](const server::JobSummary& s) {
                      return s.state == state;
                    }));
}

/// Blocks one specific job when it starts `gate_stage`, until the test
/// releases it — the deterministic "in flight" hook for the server
/// suites and the dispatch-latency bench (wired in through
/// JobServer::set_stage_observer).
class StageGate {
 public:
  void arm(std::uint64_t id, pipeline::Stage stage)
      PHES_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    armed_id_ = id;
    stage_ = stage;
  }

  void operator()(std::uint64_t id, pipeline::Stage stage)
      PHES_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (id != armed_id_ || stage != stage_) return;
    blocked_ = true;
    cv_.notify_all();
    while (!released_) cv_.wait(mutex_);
  }

  void wait_blocked() PHES_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    while (!blocked_) cv_.wait(mutex_);
  }

  void release() PHES_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  util::Mutex mutex_;
  util::CondVar cv_;
  std::uint64_t armed_id_ PHES_GUARDED_BY(mutex_) = 0;
  pipeline::Stage stage_ PHES_GUARDED_BY(mutex_) = pipeline::Stage::kLoad;
  bool blocked_ PHES_GUARDED_BY(mutex_) = false;
  bool released_ PHES_GUARDED_BY(mutex_) = false;
};

}  // namespace phes::test
