// bench_ledger — runs one workload of the performance ledger in its own
// process (so peak RSS is per workload), checks every output against an
// oracle, and prints the workload's metrics.
//
//   bench_ledger --workload NAME [--seed N] [--seconds S] [--trace]
//                [--out DIR]
//
// Workload parameters are fixed in this file and echoed on the
// `# params` line; --seed only generates the inputs.  A run measures
// for about --seconds: no new solve or job starts once they are spent.
//
//   table1_case1  Paper Table I case 1 surrogate (bench_support.hpp,
//                 n = 1000, p = 20).  Cold solves at T = min(4, nproc)
//                 threads.  The model is the fixed case; --seed draws
//                 the solves' random start vectors, the one thing the
//                 paper varies between runs.
//   small_jobs    distinct files of the `phes_pipeline gen` demo family
//                 (2-4 ports, order 24-60, half mildly non-passive),
//                 drawn by the seed and submitted by path.
//   enforce_jobs  gen's first 48 non-passive files, each submitted once
//                 by path in an order the seed shuffles.
//   repeat_jobs   the first 12 of those, each submitted up to 12 times
//                 inline in a cycle the seed orders (12 stays inside the
//                 session pool's 16 idle sessions, so every
//                 resubmission can hit it).
//
// The serving workloads run an in-process JobServer (2 workers x 2
// solver threads, `phes_pipeline serve`'s 12 poles per column) behind a
// TransportServer on a UNIX socket, driven by 3 closed-loop clients on
// their own connections.  Each sends what `phes_pipeline client submit`
// sends, polls `status` on the schedule of `phes_pipeline client wait`
// (at once, then 10 ms doubling to 500 ms), fetches `result`, then
// submits its next job.
//
// The timed run (default) uses production defaults and records no
// spans; it reports the end-to-end metrics.  --trace repeats the
// workload with bench-side spans around every call into the library,
// the server's NDJSON trace file joined under each job's span, and the
// layer probes; it writes DIR/spans.ndjson and reports the per-layer
// metrics.  Only public entry points are called, and only what
// production already exposes is read: PipelineResult, SolverResult and
// its shift_log, the metrics registry snapshot, each job's trace (what
// the `trace` op returns) and the trace file.
//
// Every time and rate is reported at the reference host speed: scaled
// by the host speed the run measured next to its work (HostSpeed), so
// that a shared host's drift does not read as a change in the code.
//
// Output: `# params <json>`, `# input_hash <hex>`, `# host_speed ...`,
// one `<name> <value> <unit>` line per metric, and as the last line one
// JSON record {"correct", "attempted", "failed", "metrics"}.  Exit 0
// when every check passed, 1 on a failed check or an error, 2 on bad
// usage.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "phes/core/arnoldi.hpp"
#include "phes/core/solver.hpp"
#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/io/touchstone.hpp"
#include "phes/la/eig.hpp"
#include "phes/la/svd.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/trace.hpp"
#include "phes/server/transport.hpp"
#include "phes/util/json.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/rng.hpp"
#include "phes/util/sync.hpp"
#include "phes/util/timer.hpp"

#include "../bench_support.hpp"

namespace fs = std::filesystem;

namespace {

using namespace phes;
using Clock = std::chrono::steady_clock;

// ---- Fixed parameters ---------------------------------------------------

constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kServerSolverThreads = 2;
/// `phes_pipeline serve`'s default fit order; like `client submit`
/// without flags, the clients send no options.
constexpr std::size_t kServePoles = 12;
constexpr std::size_t kClients = 3;
/// `phes_pipeline client wait`'s poll schedule.
constexpr std::chrono::milliseconds kPollStart{10};
constexpr std::chrono::milliseconds kPollCap{500};
/// Set-up is repeated before the measured phase and its median reported,
/// so that work moved into set-up shows as a steady number.
constexpr int kSetupRepeats = 5;
/// Oracle tolerance: at every crossing some singular value is this
/// close to 1.
constexpr double kCrossingTolerance = 1e-6;

/// T of the paper's parallel solves, sized for a 4-core box.
std::size_t parallel_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

/// One serving input: file i of those `phes_pipeline gen` writes, a
/// synthetic model sampled to Touchstone.
struct GenFile {
  std::size_t member = 0;  ///< i
  std::size_t ports = 0;
  std::size_t states = 0;
  double peak = 0.0;
  io::TouchstoneFormat format = io::TouchstoneFormat::kRI;
  std::uint64_t model_seed = 0;
};

/// `phes_pipeline gen`'s file i: 2-4 ports, order 24-60, alternately
/// mildly non-passive and passive, in the three Touchstone formats.
GenFile gen_member(std::size_t i) {
  constexpr io::TouchstoneFormat kFormats[] = {io::TouchstoneFormat::kRI,
                                               io::TouchstoneFormat::kMA,
                                               io::TouchstoneFormat::kDB};
  return GenFile{i, 2 + i % 3, 24 + 12 * (i % 4), i % 2 == 0 ? 1.04 : 0.95,
                 kFormats[i % 3], 2011 + i};
}

/// The serving workloads draw from gen's first kGenPool files, each of
/// which ends done and certified passive under `phes_pipeline batch`.
/// Models of the same family on other seeds ran out of enforcement
/// iterations about once in 350 non-passive jobs, which would fail
/// runs at random.
constexpr std::size_t kGenPool = 480;
/// The layer probes of every serving workload run on gen's third file,
/// its first 4-port, non-passive one (order 48), whichever files the
/// seed draws, so that probe timings compare across seeds.
constexpr std::size_t kProbeMember = 2;

// Band and sampling of the serving inputs (`phes_pipeline gen`'s).
constexpr double kServingBandLo = 1.0;
constexpr double kServingBandHi = 30.0;
constexpr double kSampleLo = 0.3;
constexpr double kSampleHi = 90.0;
constexpr std::size_t kSampleCount = 200;

struct ServingSpec {
  const char* name;
  std::size_t pool;         ///< draws from gen's first `pool` files
  std::size_t models;       ///< distinct inputs drawn
  std::size_t submissions;  ///< jobs; job k runs input k % models
  bool inline_payload;      ///< submit_inline instead of submit by path
  bool nonpassive_only;     ///< use the even (peak 1.04) files only
};

/// `small_jobs` draws from all of kGenPool, so that a gain has to hold
/// on models it was not tuned on.  `enforce_jobs` and `repeat_jobs` take
/// every non-passive file of a small pool, so that the seed only orders
/// them: a run completes about 45 of these jobs, too few for a draw of
/// the costliest kinds to be typical.  Drawn sets moved the median job
/// time by 16 % (enforce_jobs, 5 seeds) and 21 % (repeat_jobs, 10
/// seeds) in quartile spread, against 4.5 % and 13 % for one set rerun.
/// The repeat set is the first 12 of the enforce set.
const ServingSpec kServingSpecs[] = {
    {"small_jobs", kGenPool, 150, 150, false, false},
    {"enforce_jobs", 96, 48, 48, false, true},
    {"repeat_jobs", 24, 12, 144, true, true},
};

// ---- Metric tables --------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  /// Measured at the reference host speed already (timed_setup), so not
  /// scaled again when reported.
  bool at_reference = false;
};

/// Reported by the timed run of every workload.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", true},
    {"verdict_p50_ms", "ms"},
    {"verdict_p80_ms", "ms"},
    {"verdicts_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

/// Reported by the traced run of every workload; a layer the workload
/// does not exercise reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"core.matvecs_per_verdict", "count"},
    {"core.lambda_max_matvecs_per_verdict", "count"},
    {"core.shifts_per_verdict", "count"},
    {"core.shifts_eliminated_per_verdict", "count"},
    {"core.restarts_per_shift", "count"},
    {"core.shift_ms_p50", "ms"},
    {"core.shift_ms_p90", "ms"},
    {"core.busy_frac", "ratio"},
    {"core.idle_s", "s"},
    {"core.solve_1t_s", "s"},
    {"core.solve_par_s", "s"},
    {"core.speedup_par", "x"},
    {"core.arnoldi_ms", "ms"},
    {"la.hessenberg_eig_ms", "ms"},
    {"hamiltonian.factorizations_per_verdict", "count"},
    {"hamiltonian.factor_ms", "ms"},
    {"hamiltonian.apply_us", "us"},
    {"engine.cache_hit_frac", "ratio"},
    {"engine.warm_solve_frac", "ratio"},
    {"engine.pool_hit_frac", "ratio"},
    {"io.load_ms", "ms"},
    {"vf.fit_ms", "ms"},
    {"macromodel.realize_ms", "ms"},
    {"passivity.characterize_ms", "ms"},
    {"passivity.enforce_ms", "ms"},
    {"passivity.verify_ms", "ms"},
    {"passivity.enforce_rounds", "count"},
    {"pipeline.self_ms", "ms"},
    {"server.queue_wait_ms", "ms"},
    {"server.worker_busy_frac", "ratio"},
    {"server.submit_rtt_ms", "ms"},
    {"server.result_rtt_ms", "ms"},
    {"server.poll_p50_ms", "ms"},
    {"server.poll_p90_ms", "ms"},
    {"server.polls_per_job", "count"},
    {"server.poll_lag_ms", "ms"},
    {"server.dispatch_wait_ms", "ms"},
    {"server.dispatch_handle_ms", "ms"},
    {"server.inline_frac", "ratio"},
    {"server.store_put_ms", "ms"},
};

// ---- Small helpers --------------------------------------------------------

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolation quantile (numpy's default); 0 when empty.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) *
                          (values[hi] - values[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over the generated inputs, so a generator change cannot
/// silently change a workload.
class InputHash {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  void number(double v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Best wall time of `reps` calls after one untimed warm-up call, so
/// thread and OpenMP start-up never lands in a probe.
template <typename F>
double best_seconds(int reps, F&& body) {
  body();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  return best;
}

// ---- Host speed -------------------------------------------------------------

/// Mean CPU time, in microseconds, of one CalibrationKernel call on the
/// reference host (the 4-vCPU VM the bounds were measured on, with the
/// workloads running).  Only a scale: it makes the reported numbers read
/// as that host's.
constexpr double kReferenceKernelUs = 70.0;
constexpr std::chrono::milliseconds kSamplePeriod{50};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A fixed amount of arithmetic of the bench's own, not the library's:
/// one call is 8 products of a 48 x 48 complex matrix with a vector
/// (L1/L2-resident).  It is timed in thread CPU time, which leaves out
/// waiting for the core (the workload's own load) and keeps the host's
/// slowdown.
class CalibrationKernel {
 public:
  CalibrationKernel() : a_(kN * kN), x_(kN) {
    for (std::size_t i = 0; i < a_.size(); ++i) {
      a_[i] = {std::sin(0.37 * static_cast<double>(i)),
               std::cos(0.11 * static_cast<double>(i))};
    }
    for (std::size_t j = 0; j < kN; ++j) {
      x_[j] = {1.0, 1.0 / (1.0 + static_cast<double>(j))};
    }
  }

  /// Mean thread CPU microseconds per call over `calls` calls.
  double time_us(std::size_t calls) {
    const double t0 = thread_cpu_seconds();
    std::complex<double> total{};
    for (std::size_t c = 0; c < calls; ++c) total += call(c);
    const double us = (thread_cpu_seconds() - t0) * 1e6;
    sink_.store(total.real(), std::memory_order_relaxed);  // keeps the work
    return us / static_cast<double>(calls);
  }

 private:
  static constexpr std::size_t kN = 48;

  [[nodiscard]] std::complex<double> call(std::size_t offset) const {
    std::complex<double> total{};
    for (std::size_t rep = 0; rep < 8; ++rep) {
      for (std::size_t i = 0; i < kN; ++i) {
        std::complex<double> acc{};
        for (std::size_t j = 0; j < kN; ++j) {
          acc += a_[i * kN + j] * x_[(j + rep + offset) % kN];
        }
        total += acc;
      }
    }
    return total;
  }

  std::vector<std::complex<double>> a_;
  std::vector<std::complex<double>> x_;
  std::atomic<double> sink_{0.0};
};

/// Measures the host's speed while the workload runs.  On a shared host
/// each core slows down and speeds up, by up to 2x and for tens of
/// seconds at a time, on its own; that moved every wall-clock metric of
/// a run by 10-30 % with the work unchanged.  One thread per allowed CPU,
/// pinned to it, wakes every kSamplePeriod and times one
/// CalibrationKernel call.  The work is a fraction of a percent of one
/// core.
class HostSpeed {
 public:
  HostSpeed() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
      CPU_SET(0, &allowed);
    }
    try {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          threads_.emplace_back([this, cpu] { sample(cpu); });
        }
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;
  ~HostSpeed() { stop(); }

  void stop() {
    stopping_ = true;
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Mean kernel time and sample count over the samples taken from
  /// `from` on; kReferenceKernelUs when there are none.
  [[nodiscard]] std::pair<double, std::size_t> mean_us_since(
      Clock::time_point from) const {
    util::MutexLock lock(mutex_);
    double sum = 0.0;
    std::size_t count = 0;
    for (const auto& [at, us] : samples_) {
      if (at >= from) {
        sum += us;
        ++count;
      }
    }
    return {count == 0 ? kReferenceKernelUs
                       : sum / static_cast<double>(count),
            count};
  }

 private:
  void sample(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    CalibrationKernel kernel;
    while (!stopping_) {
      std::this_thread::sleep_for(kSamplePeriod);
      const double us = kernel.time_us(1);
      util::MutexLock lock(mutex_);
      samples_.emplace_back(Clock::now(), us);
    }
  }

  std::atomic<bool> stopping_{false};
  mutable util::Mutex mutex_;
  std::vector<std::pair<Clock::time_point, double>> samples_
      PHES_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;  // last: the threads use the above
};

// ---- Spans ----------------------------------------------------------------

/// One bench-side (or joined server-side) span; times are Unix seconds
/// so they line up with the server's trace file.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint64_t job = 0;     ///< server job id, 0 when not a job's span
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Spans kept in memory and written when the workload ends.  Disabled
/// (the timed run), every call is a no-op.
class SpanLog {
 public:
  explicit SpanLog(bool enabled)
      : enabled_(enabled),
        base_(Clock::now()),
        base_unix_(util::unix_seconds()) {}

  [[nodiscard]] std::uint64_t new_id() {
    return enabled_ ? next_id_.fetch_add(1) : 0;
  }

  [[nodiscard]] double unix_at(Clock::time_point t) const {
    return base_unix_ + seconds_between(base_, t);
  }

  /// Records a span under a given id (see new_id) or a fresh one.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t parent = 0, std::uint64_t job = 0,
           std::uint64_t id = 0) {
    if (!enabled_) return;
    add_unix(name, unix_at(start), unix_at(end), parent, job, id);
  }

  std::uint64_t add_unix(std::string name, double start, double end,
                         std::uint64_t parent, std::uint64_t job,
                         std::uint64_t id = 0) {
    if (!enabled_) return 0;
    if (id == 0) id = new_id();
    util::MutexLock lock(mutex_);
    spans_.push_back(Span{id, parent, job, std::move(name), start, end});
    return id;
  }

  [[nodiscard]] std::vector<Span> take() {
    util::MutexLock lock(mutex_);
    return std::move(spans_);
  }

 private:
  const bool enabled_;
  const Clock::time_point base_;
  const double base_unix_;
  std::atomic<std::uint64_t> next_id_{1};
  util::Mutex mutex_;
  std::vector<Span> spans_ PHES_GUARDED_BY(mutex_);
};

/// Kernel calls timed on the set-up thread on each side of a set-up.
constexpr std::size_t kSetupKernelCalls = 16;

/// Runs one set-up, records its span and its time at the reference host
/// speed, and returns what it built.  Set-up runs on one thread, so its
/// speed is that of the core it runs on, which the kernel timed on the
/// same thread next to it measures; the per-core samples of HostSpeed
/// average over all cores.
template <typename F>
auto timed_setup(std::vector<double>& times, SpanLog& spans, F&& build) {
  CalibrationKernel kernel;
  const double before_us = kernel.time_us(kSetupKernelCalls);
  const auto t0 = Clock::now();
  auto built = build();
  const auto t1 = Clock::now();
  const double after_us = kernel.time_us(kSetupKernelCalls);
  times.push_back(seconds_between(t0, t1) * 2.0 * kReferenceKernelUs /
                  (before_us + after_us));
  spans.add("setup", t0, t1);
  return built;
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover.
std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::vector<double> self;
  self.reserve(spans.size());
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.start, hi = s.start;  // current merged run
      for (const auto& [a0, b0] : iv) {
        const double a = std::max(a0, s.start);
        const double b = std::min(b0, s.end);
        if (b <= a) continue;
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    self.push_back(std::max(0.0, (s.end - s.start) - covered));
  }
  return self;
}

/// Writes the spans as NDJSON and prints each span name's mean self
/// time.
void write_spans(std::vector<Span> spans, const fs::path& file) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  const std::vector<double> self = self_seconds(spans);
  std::ofstream os(file, std::ios::trunc);
  std::map<std::string, std::pair<double, std::size_t>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char times[160];
    std::snprintf(times, sizeof times,
                  "\"start\": %.6f, \"end\": %.6f, \"self_ms\": %.4f",
                  s.start, s.end, self[i] * 1e3);
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"job\": " << s.job << ", \"name\": " << server::json_quote(s.name)
       << ", " << times << "}\n";
    auto& [sum, count] = by_name[s.name];
    sum += self[i];
    ++count;
  }
  os.flush();
  if (!os) throw std::runtime_error("cannot write " + file.string());
  for (const auto& [name, acc] : by_name) {
    std::printf("self.%s_ms %.6g ms\n", name.c_str(),
                acc.first / static_cast<double>(acc.second) * 1e3);
  }
  std::printf("# spans %zu written to %s\n", spans.size(),
              file.string().c_str());
}

// ---- Run state --------------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  fs::path out;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;
  /// End of set-up: the host speed that scales every metric but set-up
  /// time is averaged from here on.
  Clock::time_point measured_from{};

  void fail(const std::string& why) {
    ++failed;
    if (failed <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
};

// ---- Oracles ----------------------------------------------------------------

/// Worst distance from 1, over the crossings, of the singular value of
/// H(j w) nearest to 1 — evaluated from the pole-residue form, not
/// through the solver's realization.
double crossing_error(const macromodel::PoleResidueModel& model,
                      const la::RealVector& crossings) {
  double worst = 0.0;
  for (const double w : crossings) {
    double nearest = 1e300;
    for (const double s : la::complex_singular_values(model.eval(w))) {
      nearest = std::min(nearest, std::fabs(s - 1.0));
    }
    worst = std::max(worst, nearest);
  }
  return worst;
}

bool same_crossings(const la::RealVector& a, const la::RealVector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a[i] - b[i]) > 1e-6 * std::max(1.0, std::fabs(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Checks one solve: a crossing set that the oracle confirms and, when
/// `reference` is given, equal to it.
void check_solve(const macromodel::PoleResidueModel& model,
                 const core::SolverResult& result,
                 const la::RealVector* reference, const std::string& what,
                 Outcome& out) {
  ++out.attempted;
  const double err = crossing_error(model, result.crossings);
  if (result.crossings.empty() || err > kCrossingTolerance) {
    out.fail(what + ": " + std::to_string(result.crossings.size()) +
             " crossings, worst |sigma - 1| = " + std::to_string(err));
  } else if (reference != nullptr && !same_crossings(result.crossings,
                                                     *reference)) {
    out.fail(what + ": crossing set differs from the reference solve");
  }
}

// ---- Layer accounting -------------------------------------------------------

/// Solver, engine and pipeline work summed over a run's verdicts.
struct LayerTally {
  double verdicts = 0;
  double matvecs = 0;
  double lambda_max_matvecs = 0;
  double shifts = 0;
  double eliminated = 0;
  double restarts = 0;
  double shift_records = 0;
  double factorizations = 0;
  double shift_seconds = 0;   ///< sum of shift_log seconds
  double thread_seconds = 0;  ///< sum of threads x solve wall
  std::vector<double> shift_ms;
  // Engine (session) counters.
  double cache_hits = 0;
  double cache_misses = 0;
  double solves = 0;
  double warm_solves = 0;
  double pool_hits = 0;
  // Pipeline stages (seconds, summed over jobs).
  double stage_seconds[6] = {};
  double enforce_rounds = 0;
  double pipeline_self = 0;

  void add_solve(const core::SolverResult& r, std::size_t threads) {
    lambda_max_matvecs += static_cast<double>(r.lambda_max_matvecs);
    shifts += static_cast<double>(r.shifts_processed);
    eliminated += static_cast<double>(r.shifts_eliminated);
    for (const core::ShiftRecord& rec : r.shift_log) {
      restarts += static_cast<double>(rec.restarts);
      shift_seconds += rec.seconds;
      shift_ms.push_back(rec.seconds * 1e3);
    }
    shift_records += static_cast<double>(r.shift_log.size());
    thread_seconds += static_cast<double>(threads) * r.seconds;
  }

  void add_job(const pipeline::PipelineResult& r) {
    verdicts += 1;
    matvecs += static_cast<double>(r.initial_report.solver.total_matvecs +
                                   r.enforcement.total_matvecs +
                                   r.final_report.solver.total_matvecs);
    add_solve(r.initial_report.solver, kServerSolverThreads);
    add_solve(r.final_report.solver, kServerSolverThreads);
    factorizations += static_cast<double>(r.session.factorizations);
    cache_hits += static_cast<double>(r.session.cache.hits);
    cache_misses += static_cast<double>(r.session.cache.misses);
    solves += static_cast<double>(r.session.solves);
    warm_solves += static_cast<double>(r.session.warm_solves);
    pool_hits += r.session_reused ? 1 : 0;
    double staged = 0.0;
    for (const pipeline::StageTiming& t : r.stage_timings) {
      stage_seconds[static_cast<std::size_t>(t.stage)] += t.seconds;
      staged += t.seconds;
    }
    pipeline_self += r.total_seconds - staged;
    enforce_rounds += static_cast<double>(r.enforcement.iterations);
  }

  void report(Outcome& out) const {
    auto& m = out.metrics;
    m["core.matvecs_per_verdict"] = ratio(matvecs, verdicts);
    m["core.lambda_max_matvecs_per_verdict"] =
        ratio(lambda_max_matvecs, verdicts);
    m["core.shifts_per_verdict"] = ratio(shifts, verdicts);
    m["core.shifts_eliminated_per_verdict"] = ratio(eliminated, verdicts);
    m["core.restarts_per_shift"] = ratio(restarts, shift_records);
    m["core.shift_ms_p50"] = quantile(shift_ms, 0.5);
    m["core.shift_ms_p90"] = quantile(shift_ms, 0.9);
    m["core.busy_frac"] = ratio(shift_seconds, thread_seconds);
    m["core.idle_s"] = ratio(thread_seconds - shift_seconds, verdicts);
    m["hamiltonian.factorizations_per_verdict"] =
        ratio(factorizations, verdicts);
    m["engine.cache_hit_frac"] = ratio(cache_hits, cache_hits + cache_misses);
    m["engine.warm_solve_frac"] = ratio(warm_solves, solves);
    m["engine.pool_hit_frac"] = ratio(pool_hits, verdicts);
    const auto stage_ms = [&](pipeline::Stage s) {
      return ratio(stage_seconds[static_cast<std::size_t>(s)], verdicts) * 1e3;
    };
    m["io.load_ms"] = stage_ms(pipeline::Stage::kLoad);
    m["vf.fit_ms"] = stage_ms(pipeline::Stage::kFit);
    m["macromodel.realize_ms"] = stage_ms(pipeline::Stage::kRealize);
    m["passivity.characterize_ms"] = stage_ms(pipeline::Stage::kCharacterize);
    m["passivity.enforce_ms"] = stage_ms(pipeline::Stage::kEnforce);
    m["passivity.verify_ms"] = stage_ms(pipeline::Stage::kVerify);
    m["passivity.enforce_rounds"] = ratio(enforce_rounds, verdicts);
    m["pipeline.self_ms"] = ratio(pipeline_self, verdicts) * 1e3;
  }
};

// ---- Layer probes -----------------------------------------------------------

/// Min-of-k timings of single layer calls on the workload's
/// representative model at the middle of `solved`'s search band: one
/// operator build, one apply, one d = min(60, 2n - 1) Arnoldi on that
/// operator, and the Ritz eigensolve of its projection.
void probe_layers(const macromodel::SimoRealization& realization,
                  const core::SolverResult& solved, std::uint64_t seed,
                  SpanLog& spans, Outcome& out) {
  const la::Complex theta(0.0, 0.5 * (solved.omega_min + solved.omega_max));
  auto t0 = Clock::now();
  const double factor_s = best_seconds(5, [&] {
    const hamiltonian::SmwShiftInvertOp probe(realization, theta);
    (void)probe.dim();
  });
  spans.add("probe.factor", t0, Clock::now());

  const hamiltonian::SmwShiftInvertOp op(realization, theta);
  util::Rng rng(seed);
  const la::ComplexVector x = core::random_start_vector(op.dim(), rng);
  la::ComplexVector y(op.dim());
  t0 = Clock::now();
  const double apply_s = best_seconds(200, [&] { op.apply(x, y); });
  spans.add("probe.apply", t0, Clock::now());

  const std::size_t d = std::min<std::size_t>(60, op.dim() - 1);
  core::ArnoldiResult ar;
  t0 = Clock::now();
  const double arnoldi_s =
      best_seconds(3, [&] { ar = core::arnoldi(op, x, d, {}); });
  spans.add("probe.arnoldi", t0, Clock::now());

  la::ComplexMatrix h(ar.steps, ar.steps);
  for (std::size_t i = 0; i < ar.steps; ++i) {
    for (std::size_t j = 0; j < ar.steps; ++j) h(i, j) = ar.h(i, j);
  }
  t0 = Clock::now();
  const double hess_s =
      best_seconds(3, [&] { (void)la::hessenberg_eig(h, true); });
  spans.add("probe.hessenberg_eig", t0, Clock::now());

  ++out.attempted;
  if (ar.steps != d) {
    out.fail("layer probe: Arnoldi stopped at " + std::to_string(ar.steps) +
             " of " + std::to_string(d) + " steps");
  }
  out.metrics["hamiltonian.factor_ms"] = factor_s * 1e3;
  out.metrics["hamiltonian.apply_us"] = apply_s * 1e6;
  out.metrics["core.arnoldi_ms"] = arnoldi_s * 1e3;
  out.metrics["la.hessenberg_eig_ms"] = hess_s * 1e3;
}

void report_speedup(double one_s, double par_s, Outcome& out) {
  out.metrics["core.solve_1t_s"] = one_s;
  out.metrics["core.solve_par_s"] = par_s;
  out.metrics["core.speedup_par"] = ratio(one_s, par_s);
}

// ---- table1_case1 -----------------------------------------------------------

std::string table1_params(const Config& cfg, const bench::CaseSpec& c) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"table1_case1\", \"seconds\": %g, "
                "\"case\": %d, \"states\": %zu, \"ports\": %zu, "
                "\"peak\": %g, \"model_seed\": %llu, \"threads\": %zu, "
                "\"setup_repeats\": %d}",
                cfg.seconds, c.id, c.n, c.p, c.peak,
                static_cast<unsigned long long>(c.seed), parallel_threads(),
                kSetupRepeats);
  return buf;
}

void run_table1(const Config& cfg, SpanLog& spans, Outcome& out) {
  const bench::CaseSpec& c = bench::table1_cases().front();
  std::printf("# params %s\n", table1_params(cfg, c).c_str());

  std::vector<double> setup;
  const auto build = [&c] {
    auto model = std::make_unique<macromodel::PoleResidueModel>(
        bench::build_case_model(c));
    auto realization = std::make_unique<macromodel::SimoRealization>(*model);
    return std::make_pair(std::move(model), std::move(realization));
  };
  std::unique_ptr<macromodel::PoleResidueModel> model;
  std::unique_ptr<macromodel::SimoRealization> realization;
  for (int r = 0; r < kSetupRepeats; ++r) {
    std::tie(model, realization) = timed_setup(setup, spans, build);
  }
  out.metrics["setup_s"] = quantile(setup, 0.5);
  out.measured_from = Clock::now();

  util::SplitMix64 seeds(cfg.seed);
  InputHash hash;
  const la::RealMatrix& dmat = model->d();
  hash.bytes(dmat.data(), dmat.rows() * dmat.cols() * sizeof(double));
  for (const auto& col : model->columns()) {
    for (const auto& t : col.real_terms) {
      hash.number(t.pole);
      hash.bytes(t.residue.data(), t.residue.size() * sizeof(double));
    }
    for (const auto& t : col.complex_terms) {
      hash.bytes(&t.pole, sizeof t.pole);
      hash.bytes(t.residue.data(), t.residue.size() * sizeof(la::Complex));
    }
  }
  const std::uint64_t first_seed = util::SplitMix64(cfg.seed).next();
  hash.bytes(&first_seed, sizeof first_seed);
  std::printf("# input_hash %s\n", hash.hex().c_str());

  const core::ParallelHamiltonianEigensolver solver(*realization);
  const std::size_t threads = parallel_threads();
  const auto solve = [&](std::size_t t, std::uint64_t seed,
                         const char* name) {
    core::SolverOptions opt;
    opt.threads = t;
    opt.seed = seed;
    const auto t0 = Clock::now();
    core::SolverResult r = solver.solve(opt);
    spans.add(name, t0, Clock::now());
    return r;
  };

  std::vector<double> wall;
  if (!cfg.trace) {
    // Cold T-thread solves until the time is spent; the crossing set
    // must not depend on the start vectors.
    la::RealVector reference;
    const auto start = Clock::now();
    for (;;) {
      const core::SolverResult r = solve(threads, seeds.next(), "core.solve");
      check_solve(*model, r, wall.empty() ? nullptr : &reference,
                  "table1_case1 solve " + std::to_string(wall.size()), out);
      if (wall.empty()) reference = r.crossings;
      wall.push_back(r.seconds);
      if (seconds_between(start, Clock::now()) + r.seconds > cfg.seconds) {
        break;
      }
    }
  } else {
    // One interleaved 1-thread / T-thread pair on the same start
    // vectors: the paper's tau_1, tau_T and eta, plus the scheduler
    // work of the T-thread solve.
    const std::uint64_t seed = seeds.next();
    const core::SolverResult one = solve(1, seed, "core.solve_1t");
    check_solve(*model, one, nullptr, "table1_case1 1-thread solve", out);
    const core::SolverResult par = solve(threads, seed, "core.solve");
    check_solve(*model, par, &one.crossings, "table1_case1 T-thread solve",
                out);
    wall.push_back(par.seconds);
    report_speedup(one.seconds, par.seconds, out);

    LayerTally tally;
    tally.verdicts = 1;
    tally.matvecs = static_cast<double>(par.total_matvecs);
    tally.factorizations = static_cast<double>(par.factorizations);
    tally.add_solve(par, threads);
    tally.report(out);
    probe_layers(*realization, par, seed, spans, out);
    // No server here: its layers read 0.
    for (const MetricDef& def : kPerLayer) out.metrics.emplace(def.name, 0.0);
  }
  double total = 0.0;
  for (const double w : wall) total += w;
  out.metrics["verdict_p50_ms"] = quantile(wall, 0.5) * 1e3;
  out.metrics["verdict_p80_ms"] = quantile(wall, 0.8) * 1e3;
  out.metrics["verdicts_per_s"] = ratio(static_cast<double>(wall.size()),
                                        total);
  std::printf("verdicts %zu count\n", wall.size());
}

// ---- Serving workloads ------------------------------------------------------

struct ServingInput {
  GenFile kind;
  std::string payload;  ///< Touchstone text
  std::string request;  ///< the submit line
};

struct ServingSet {
  std::vector<ServingInput> inputs;
  std::string hash;
};

macromodel::PoleResidueModel gen_model(const GenFile& kind) {
  macromodel::SyntheticModelSpec ms;
  ms.ports = kind.ports;
  ms.states = kind.states;
  ms.omega_min = kServingBandLo;
  ms.omega_max = kServingBandHi;
  ms.target_peak_gain = kind.peak;
  ms.seed = kind.model_seed;
  return macromodel::make_synthetic_model(ms);
}

template <typename T>
void shuffle(std::vector<T>& items, util::SplitMix64& mix) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[mix.next() % i]);
  }
}

/// The files a run submits, in gen's order of kinds: file j has the
/// ports, order, peak and format of gen's file j (of its even files when
/// `nonpassive_only`), and `seed` picks which pool file of that kind,
/// without repeats.  Every run thus submits the same mix of kinds in the
/// same order, and only the models differ; a uniform draw let the mix,
/// and with it the job times, swing from seed to seed.
std::vector<GenFile> draw_inputs(const ServingSpec& spec, std::uint64_t seed) {
  constexpr std::size_t kKinds = 12;  // gen's kind repeats every 12 files
  const std::size_t step = spec.nonpassive_only ? 2 : 1;
  InputHash name_hash;
  name_hash.text(spec.name);
  util::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + name_hash.value());
  // Each kind's files, shuffled.
  std::vector<std::vector<std::size_t>> by_kind(kKinds / step);
  for (std::size_t k = 0; k < by_kind.size(); ++k) {
    for (std::size_t i = k * step; i < spec.pool; i += kKinds) {
      by_kind[k].push_back(i);
    }
    shuffle(by_kind[k], mix);
  }
  std::vector<GenFile> drawn;
  for (std::size_t j = 0; j < spec.models; ++j) {
    drawn.push_back(
        gen_member(by_kind[j % by_kind.size()].at(j / by_kind.size())));
  }
  return drawn;
}

/// Generates every input of `spec` and writes the by-path ones under
/// `dir`.  One thread: a parallel set-up waits for its slowest core, and
/// on a shared host that made its time swing threefold within a run.
ServingSet generate_inputs(const ServingSpec& spec, std::uint64_t seed,
                           const fs::path& dir) {
  if (!spec.inline_payload) fs::create_directories(dir);
  ServingSet set;
  for (const GenFile& kind : draw_inputs(spec, seed)) {
    ServingInput& in = set.inputs.emplace_back();
    in.kind = kind;
    const auto samples = macromodel::sample_model(
        gen_model(kind), kSampleLo, kSampleHi, kSampleCount);
    io::TouchstoneMetadata meta;
    meta.format = kind.format;
    std::ostringstream os;
    io::save_touchstone(samples, os, meta);
    in.payload = os.str();
    // gen's file name, and the requests `phes_pipeline client submit
    // [--inline]` sends.
    const std::string filename = "case" + std::to_string(kind.member + 1) +
                                 ".s" + std::to_string(kind.ports) + "p";
    if (spec.inline_payload) {
      in.request = "{\"op\": \"submit_inline\", \"filename\": " +
                   server::json_quote(filename) + ", \"payload\": " +
                   server::json_quote(in.payload) + "}";
    } else {
      const fs::path file = fs::absolute(dir / filename);
      std::ofstream f(file, std::ios::trunc);
      f << in.payload;
      f.flush();
      if (!f) throw std::runtime_error("cannot write " + file.string());
      in.request = "{\"op\": \"submit\", \"path\": " +
                   server::json_quote(file.string()) + "}";
    }
  }

  InputHash hash;
  for (const ServingInput& in : set.inputs) {
    hash.number(in.kind.peak);
    hash.text(in.payload);
  }
  set.hash = hash.hex();
  return set;
}

/// Empty when a job's `result` response carries the right verdict:
/// finished, certified passive, and enforced whenever its input was
/// generated non-passive.  A fit with fewer states than the generator
/// can smooth a small violation away, so the enforcement check applies
/// only where the fit's relative RMS error stays below half the
/// generated violation (peak - 1).
std::string verdict_error(const util::JsonValue& reply, const GenFile& kind) {
  const util::JsonValue* job = reply.find("job");
  if (!reply.bool_or("ok", false) || job == nullptr || job->is_null()) {
    return "result refused: " + reply.string_or("error", "no job record");
  }
  const std::string status = job->string_or("status", "");
  if (reply.string_or("state", "") != "done") {
    return "job ended " + status + ": " + job->string_or("error", "");
  }
  if (!job->bool_or("certified_passive", false)) {
    return "not certified passive (" + status + ")";
  }
  const util::JsonValue* enf = job->find("enforcement");
  const bool must_enforce = kind.peak > 1.0 && job->number_or("fit_rms", 1.0) <
                                                   0.5 * (kind.peak - 1.0);
  if (must_enforce && (enf == nullptr || !enf->bool_or("run", false))) {
    return "input with peak gain " + std::to_string(kind.peak) +
           " finished without enforcement (" + status + ")";
  }
  return {};
}

struct JobSample {
  std::size_t input = 0;
  std::uint64_t id = 0;
  bool ok = false;
  double submit_ms = 0.0;
  double result_ms = 0.0;
  std::size_t polls = 0;
  Clock::time_point sent{};
  Clock::time_point received{};
  /// Submit sent -> the server finished the job's pipeline run (from
  /// the job's trace, what the `trace` op returns).  Polling only
  /// delays when the client sees the verdict, not when it exists.
  double verdict_ms = 0.0;
  std::uint64_t span = 0;
};

struct ClientLog {
  std::vector<JobSample> jobs;
  std::vector<double> poll_ms;
  std::vector<std::string> errors;
};

/// One closed-loop client: submit, poll on kPollStart..kPollCap backoff,
/// fetch the result, repeat until the jobs or the time run out.
void client_loop(const std::string& socket, const server::JobServer& server,
                 const ServingSpec& spec,
                 const std::vector<ServingInput>& inputs,
                 std::atomic<std::size_t>& next, Clock::time_point deadline,
                 SpanLog& spans, ClientLog& log) {
  try {
    server::Client client(socket);
    while (Clock::now() < deadline) {
      const std::size_t k = next.fetch_add(1);
      if (k >= spec.submissions) break;
      JobSample job;
      job.input = k % spec.models;
      job.span = spans.new_id();
      try {
        job.sent = Clock::now();
        const util::JsonValue ack = util::JsonValue::parse(
            client.request(inputs[job.input].request));
        auto t1 = Clock::now();
        job.submit_ms = seconds_between(job.sent, t1) * 1e3;
        if (!ack.bool_or("ok", false)) {
          throw std::runtime_error("submit refused: " +
                                   ack.string_or("error", "?"));
        }
        job.id = ack.uint_or("id", 0);
        spans.add("client.submit", job.sent, t1, job.span, job.id);
        const std::string id = std::to_string(job.id);
        const std::string status_line = "{\"op\": \"status\", \"id\": " + id +
                                        "}";
        for (auto wait = kPollStart;; wait = std::min(2 * wait, kPollCap)) {
          const auto t0 = Clock::now();
          const util::JsonValue reply =
              util::JsonValue::parse(client.request(status_line));
          t1 = Clock::now();
          log.poll_ms.push_back(seconds_between(t0, t1) * 1e3);
          ++job.polls;
          spans.add("client.poll", t0, t1, job.span, job.id);
          const util::JsonValue* rec = reply.find("job");
          if (!reply.bool_or("ok", false) || rec == nullptr) {
            throw std::runtime_error("status refused: " +
                                     reply.string_or("error", "?"));
          }
          const std::string state = rec->string_or("state", "");
          if (state != "queued" && state != "running") break;
          std::this_thread::sleep_for(wait);
        }
        const auto t0 = Clock::now();
        const std::string result =
            client.request("{\"op\": \"result\", \"id\": " + id + "}");
        job.received = Clock::now();
        job.result_ms = seconds_between(t0, job.received) * 1e3;
        spans.add("client.result", t0, job.received, job.span, job.id);
        spans.add("job", job.sent, job.received, 0, job.id, job.span);
        std::string error = verdict_error(util::JsonValue::parse(result),
                                          inputs[job.input].kind);
        if (const auto trace = server.trace(job.id)) {
          job.verdict_ms = (trace->started_unix + trace->total_ms * 1e-3 -
                            spans.unix_at(job.sent)) *
                           1e3;
        } else if (error.empty()) {
          error = "no trace retained";
        }
        job.ok = error.empty();
        if (!job.ok) {
          log.errors.push_back("job " + id + " (input " +
                               std::to_string(job.input) + "): " + error);
        }
      } catch (const std::exception& e) {
        if (job.received == Clock::time_point{}) job.received = Clock::now();
        log.errors.push_back(std::string("job of input ") +
                             std::to_string(job.input) + ": " + e.what());
      }
      log.jobs.push_back(job);
    }
  } catch (const std::exception& e) {
    log.errors.push_back(std::string("client: ") + e.what());
  }
}

/// An in-process server behind a UNIX-socket transport.  Declaration
/// order matters: the transport (destroyed first) refers to the server.
struct Service {
  std::unique_ptr<server::JobServer> jobs;
  std::unique_ptr<server::TransportServer> transport;

  Service(const std::string& socket, const std::string& trace_file) {
    server::ServerOptions options;
    options.workers = kServerWorkers;
    options.solver_threads = kServerSolverThreads;
    options.job_defaults.fit.num_poles = kServePoles;
    options.trace_file = trace_file;
    jobs = std::make_unique<server::JobServer>(options);
    transport = std::make_unique<server::TransportServer>(
        *jobs, std::make_unique<server::UnixTransport>(socket));
    transport->start();
  }

  void stop() {
    transport->stop();
    jobs->shutdown(true);
  }
};

double hist_mean_ms(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.histograms.find(name);
  if (it == snap.histograms.end()) return 0.0;
  return ratio(it->second.sum, static_cast<double>(it->second.count)) * 1e3;
}

double counter(const obs::MetricsSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

std::string serving_params(const Config& cfg, const ServingSpec& spec) {
  std::ostringstream os;
  os << "{\"workload\": \"" << spec.name << "\", \"seconds\": "
     << cfg.seconds << ", \"models\": " << spec.models
     << ", \"submissions\": " << spec.submissions << ", \"submit\": \""
     << (spec.inline_payload ? "inline" : "path") << "\", \"clients\": "
     << kClients << ", \"workers\": " << kServerWorkers
     << ", \"solver_threads\": " << kServerSolverThreads
     << ", \"poles\": " << kServePoles << ", \"poll_ms\": ["
     << kPollStart.count() << ", " << kPollCap.count() << "], \"band\": ["
     << kServingBandLo << ", " << kServingBandHi << "], \"samples\": ["
     << kSampleLo << ", " << kSampleHi << ", " << kSampleCount
     << "], \"gen_pool\": " << spec.pool << ", \"nonpassive_only\": "
     << (spec.nonpassive_only ? "true" : "false")
     << ", \"probe_member\": " << kProbeMember
     << ", \"setup_repeats\": " << kSetupRepeats << "}";
  return os.str();
}

void run_serving(const Config& cfg, const ServingSpec& spec, SpanLog& spans,
                 Outcome& out) {
  std::printf("# params %s\n", serving_params(cfg, spec).c_str());
  const std::string socket = (cfg.out / "ledger.sock").string();
  const std::string trace_file =
      cfg.trace ? (cfg.out / "server_trace.ndjson").string() : "";

  std::vector<double> setup;
  ServingSet set;
  std::unique_ptr<Service> service;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (service) service->stop();
    service.reset();
    if (!trace_file.empty()) fs::remove(trace_file);
    std::tie(set, service) = timed_setup(setup, spans, [&] {
      return std::make_pair(
          generate_inputs(spec, cfg.seed, cfg.out / "inputs"),
          std::make_unique<Service>(socket, trace_file));
    });
  }
  out.metrics["setup_s"] = quantile(setup, 0.5);
  out.measured_from = Clock::now();
  std::printf("# input_hash %s\n", set.hash.c_str());

  // ---- Closed loop.
  std::atomic<std::size_t> next{0};
  std::vector<ClientLog> logs(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::cref(socket),
                           std::cref(*service->jobs), std::cref(spec),
                           std::cref(set.inputs), std::ref(next), deadline,
                           std::ref(spans), std::ref(logs[c]));
    }
    for (auto& t : clients) t.join();
  }

  std::vector<JobSample> jobs;
  std::vector<double> poll_ms;
  for (auto& log : logs) {
    jobs.insert(jobs.end(), log.jobs.begin(), log.jobs.end());
    poll_ms.insert(poll_ms.end(), log.poll_ms.begin(), log.poll_ms.end());
    for (const auto& e : log.errors) out.fail(spec.name + (": " + e));
  }
  out.attempted += jobs.size();

  std::vector<double> latency_ms, lag_ms, submit_ms, result_ms;
  double polls = 0.0;
  Clock::time_point first = Clock::time_point::max();
  Clock::time_point last = Clock::time_point::min();
  for (const JobSample& j : jobs) {
    first = std::min(first, j.sent);
    last = std::max(last, j.received);
    if (!j.ok) continue;
    latency_ms.push_back(j.verdict_ms);
    lag_ms.push_back(seconds_between(j.sent, j.received) * 1e3 -
                     j.verdict_ms);
    submit_ms.push_back(j.submit_ms);
    result_ms.push_back(j.result_ms);
    polls += static_cast<double>(j.polls);
  }
  const double window = jobs.empty() ? 0.0 : seconds_between(first, last);
  const auto done = static_cast<double>(latency_ms.size());
  out.metrics["verdict_p50_ms"] = quantile(latency_ms, 0.5);
  out.metrics["verdict_p80_ms"] = quantile(latency_ms, 0.8);
  out.metrics["verdicts_per_s"] = ratio(done, window);
  std::printf("verdicts %zu count\n", latency_ms.size());

  if (cfg.trace) {
    LayerTally tally;
    for (const JobSample& j : jobs) {
      if (!j.ok) continue;
      if (const auto r = service->jobs->result(j.id)) tally.add_job(*r);
    }
    tally.report(out);
    const obs::MetricsSnapshot snap = service->jobs->metrics_snapshot();
    auto& m = out.metrics;
    m["server.queue_wait_ms"] =
        hist_mean_ms(snap, "phes_job_queue_wait_seconds");
    const auto total = snap.histograms.find("phes_job_total_seconds");
    m["server.worker_busy_frac"] =
        total == snap.histograms.end()
            ? 0.0
            : ratio(total->second.sum,
                    static_cast<double>(kServerWorkers) * window);
    m["server.submit_rtt_ms"] = quantile(submit_ms, 0.5);
    m["server.result_rtt_ms"] = quantile(result_ms, 0.5);
    m["server.poll_p50_ms"] = quantile(poll_ms, 0.5);
    m["server.poll_p90_ms"] = quantile(poll_ms, 0.9);
    m["server.polls_per_job"] = ratio(polls, done);
    m["server.poll_lag_ms"] = quantile(lag_ms, 0.5);
    m["server.dispatch_wait_ms"] =
        hist_mean_ms(snap, "phes_dispatch_queue_wait_seconds");
    m["server.dispatch_handle_ms"] =
        hist_mean_ms(snap, "phes_dispatch_handle_seconds");
    m["server.inline_frac"] =
        ratio(counter(snap, "phes_transport_inline_requests_total"),
              counter(snap, "phes_transport_requests_total"));
    m["server.store_put_ms"] = hist_mean_ms(snap, "phes_store_put_seconds");
  }
  service->stop();

  if (cfg.trace) {
    // Join the server's per-job stage spans under each job's
    // submit -> result span.
    std::map<std::uint64_t, std::uint64_t> job_span;
    for (const JobSample& j : jobs) {
      if (j.id != 0 && j.received != Clock::time_point{}) {
        job_span[j.id] = j.span;
      }
    }
    std::ifstream in(trace_file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const server::JobTrace t =
          server::JobTrace::from_json(util::JsonValue::parse(line));
      const auto it = job_span.find(t.id);
      if (it == job_span.end()) continue;
      spans.add_unix("server.queue", t.submitted_unix, t.started_unix,
                     it->second, t.id);
      const std::uint64_t pipeline_span = spans.add_unix(
          "server.pipeline", t.started_unix,
          t.started_unix + t.total_ms * 1e-3, it->second, t.id);
      for (const server::StageSpan& s : t.spans) {
        spans.add_unix("stage." + s.stage, s.start_unix,
                       s.start_unix + s.duration_ms * 1e-3, pipeline_span,
                       t.id);
      }
    }

    // Layer probes on the probe model, after the server is down so
    // nothing else competes for the cores.
    const macromodel::PoleResidueModel model =
        gen_model(gen_member(kProbeMember));
    const macromodel::SimoRealization realization(model);
    const core::ParallelHamiltonianEigensolver solver(realization);
    const std::size_t threads = parallel_threads();
    core::SolverOptions opt;
    opt.seed = cfg.seed;
    core::SolverResult one, par;
    double one_s = 1e300, par_s = 1e300;
    for (int r = 0; r < 4; ++r) {  // round 0 is the warm-up
      opt.threads = 1;
      auto t0 = Clock::now();
      one = solver.solve(opt);
      spans.add("core.solve_1t", t0, Clock::now());
      opt.threads = threads;
      t0 = Clock::now();
      par = solver.solve(opt);
      spans.add("core.solve_par", t0, Clock::now());
      if (r > 0) {
        one_s = std::min(one_s, one.seconds);
        par_s = std::min(par_s, par.seconds);
      }
    }
    ++out.attempted;
    if (!same_crossings(one.crossings, par.crossings) ||
        crossing_error(model, par.crossings) > kCrossingTolerance) {
      out.fail(spec.name +
               std::string(": probe-model solves disagree with the oracle"));
    }
    report_speedup(one_s, par_s, out);
    probe_layers(realization, par, cfg.seed, spans, out);
  }
  service.reset();
  std::error_code ignored;
  fs::remove_all(cfg.out / "inputs", ignored);
}

// ---- Output -----------------------------------------------------------------

/// A measured value at the reference host speed: times are multiplied
/// by `factor`, rates divided by it; counts, ratios and sizes stay.
double at_reference_speed(double value, const std::string& unit,
                          double factor) {
  if (unit == "s" || unit == "ms" || unit == "us") return value * factor;
  if (unit == "1/s") return value / factor;
  return value;
}

void print_result(const Config& cfg, const Outcome& out,
                  const HostSpeed& host) {
  const auto [mean_us, samples] = host.mean_us_since(out.measured_from);
  const double factor = kReferenceKernelUs / mean_us;
  std::printf("# host_speed %.6g (calibration kernel %.6g us mean over %zu "
              "samples after set-up, reference %g us)\n",
              factor, mean_us, samples, kReferenceKernelUs);
  const auto value_of = [&](const MetricDef& def) {
    const auto it = out.metrics.find(def.name);
    if (it == out.metrics.end()) {
      throw std::logic_error(std::string("metric not measured: ") + def.name);
    }
    return def.at_reference ? it->second
                            : at_reference_speed(it->second, def.unit, factor);
  };
  const auto& listed = cfg.trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const double v = value_of(listed[i]);
    std::printf("%s %.6g %s\n", listed[i].name, v, listed[i].unit);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", v);
    json += std::string(i ? ", " : "") + "\"" + listed[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + listed[i].unit +
            "\"}";
  }
  json += "}}";
  if (cfg.trace) {
    // The traced run's latency, for the ledger's trace-overhead ratio.
    std::printf("verdict_p50_ms %.6g ms\n",
                value_of(MetricDef{"verdict_p50_ms", "ms"}));
  }
  std::printf("fail_frac %.6g ratio\n",
              ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)));
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_ledger --workload "
               "table1_case1|small_jobs|enforce_jobs|repeat_jobs\n"
               "                    [--seed N] [--seconds S] [--trace] "
               "[--out DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.out = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      cfg.out = argv[++i];
    } else if (arg == "--trace") {
      cfg.trace = true;
    } else {
      return usage();
    }
  }
  const ServingSpec* serving = nullptr;
  for (const ServingSpec& s : kServingSpecs) {
    if (cfg.workload == s.name) serving = &s;
  }
  if ((serving == nullptr && cfg.workload != "table1_case1") ||
      !(cfg.seconds > 0.0)) {
    return usage();
  }

  try {
    fs::create_directories(cfg.out);
    SpanLog spans(cfg.trace);
    Outcome out;
    HostSpeed host;
    if (serving != nullptr) {
      run_serving(cfg, *serving, spans, out);
    } else {
      run_table1(cfg, spans, out);
    }
    host.stop();
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    if (cfg.trace) write_spans(spans.take(), cfg.out / "spans.ndjson");
    print_result(cfg, out, host);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: %s\n", e.what());
    return 1;
  }
}
