// phes_pipeline — end-to-end batch passivity pipeline driver.
//
//   phes_pipeline run <file> [flags]
//       Run one file (Touchstone .sNp or phes-samples text) through
//       load -> fit -> realize -> characterize -> enforce -> verify.
//       `--stop-after fit|characterize|enforce` runs one file only up
//       to that stage (fit only, passivity check only, enforcement
//       without the verify solve).
//   phes_pipeline batch <dir> [flags]
//       Run every .sNp / .snp / .txt samples file in <dir> as a batch
//       with two-level (jobs x solver-threads) parallelism and print a
//       summary table.
//   phes_pipeline gen <dir> [count]
//       Write `count` (default 4) synthetic Touchstone files (a mix of
//       passive and non-passive models, varying ports/order/format)
//       into <dir> so `batch` has something to chew on.
//   phes_pipeline serve <socket> [flags]
//       Long-lived job server: bounded queue with backpressure,
//       persistent workers (jobs share nothing), result
//       store.  Listens on the AF_UNIX socket, plus a TCP endpoint
//       with `--tcp HOST:PORT --auth-token-file FILE` (remote clients
//       authenticate with the shared token).  All connections
//       are served by one epoll event loop; request handling runs on a
//       small dispatch pool so status polls stay live while submits
//       block on backpressure.  With `--data-dir DIR`, finished results
//       spill to disk and are served again after a restart (jobs that
//       were in flight at a crash come back as failed/lost).  Runs
//       until a client sends the shutdown op (or SIGINT/SIGTERM, which
//       drains gracefully).
//   phes_pipeline client <endpoint> <op> [args]
//       Scripting client; prints the server's JSON response line.
//       <endpoint> is a socket path or tcp:HOST:PORT (the latter with
//       --auth-token-file FILE).
//         submit <file> [--inline] [job flags]
//         status [id]     result <id>     cancel <id>
//         ping            trace <id>      metrics [--prom]
//         wait <id> [--timeout s]       shutdown [--no-drain]
//         replay <id> | replay --all [--state S --model H
//                                     --from N --to N]
//         campaign <id> [--table]
//       `submit --inline` sends the file's contents in the request
//       payload (submit_inline op) — the server needs no access to the
//       client's filesystem.  `metrics --prom` converts the server's
//       JSON metrics dump to Prometheus text exposition locally (feed
//       it to a node_exporter textfile collector).  `wait` reports its
//       total waited time and poll count on stderr when it returns.
//       `replay` turns stored records (one id, or --all narrowed by the
//       optional filters) back into fresh jobs and starts a tracked
//       campaign; `campaign <id>` reports its progress with a per-job
//       delta against the stored baseline (bit-identical /
//       numerically-changed / state-changed), renderable as an ASCII
//       table locally.
//
// Flags:
//   --poles <n>          VF poles per column            (default 12)
//   --vf-iters <n>       VF pole-relocation sweeps      (default 12,
//                        at most vf::kMaxIterations = 100)
//   --threads <n>        total hardware budget          (default auto)
//   --jobs <n>           concurrent jobs override       (default auto)
//   --solver-threads <n> per-job solver threads override(default auto)
//   --stop-after <stage> load|fit|realize|characterize|enforce|verify
//   --summary-json <path> write the machine-readable JSON summary
//   --verbose            per-stage timing breakdown per job
// serve/client flags:
//   --queue <n>          queue capacity / backpressure bound (default 64)
//   --tcp <host:port>    additional TCP listener
//   --auth-token-file <f> shared token for the TCP auth handshake
//   --data-dir <dir>     durable result storage + crash recovery
//   --retain-records <n> in-memory finished-record cap (default 4096)
//   --retain-mb <n>      disk retention byte budget (0 = unbounded)
//   --retain-ttl <s>     disk retention TTL in seconds (0 = forever)
//   --trace-file <path>  append one NDJSON trace event per finished job
//   --slow-job-ms <n>    log a stderr stage breakdown for jobs slower
//                        than this (0 = off)
//   --poll-ms <n>        fixed `client wait` poll interval (default:
//                        exponential backoff 10 ms -> 500 ms)
//
// Exit status: 0 when every job succeeded, 1 when any failed, 2 usage.
// `client wait` distinguishes outcomes: 0 done, 1 failed, 3 cancelled,
// 4 timeout.

#include <csignal>
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "phes/io/touchstone.hpp"
#include "phes/macromodel/generator.hpp"
#include "phes/macromodel/samples.hpp"
#include "phes/pipeline/batch.hpp"
#include "phes/pipeline/job.hpp"
#include "phes/pipeline/report.hpp"
#include "phes/server/protocol.hpp"
#include "phes/server/server.hpp"
#include "phes/server/socket.hpp"
#include "phes/server/transport.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/table.hpp"

namespace {

using namespace phes;
namespace fs = std::filesystem;

struct CliOptions {
  pipeline::JobOptions job{};
  pipeline::BatchOptions batch{};
  std::string summary_json;  ///< empty => no JSON summary file
  bool verbose = false;
  // serve-only
  std::size_t queue_capacity = 64;
  std::string tcp_endpoint;      ///< "HOST:PORT"; empty => no TCP listener
  std::string auth_token_file;   ///< shared token for the TCP handshake
  std::string data_dir;          ///< empty => in-memory result store
  std::size_t retain_records = 4096;
  std::size_t retain_mb = 0;     ///< disk byte budget (0 = unbounded)
  double retain_ttl = 0.0;       ///< disk TTL seconds (0 = forever)
  std::string trace_file;    ///< NDJSON job-trace sink (serve only)
  double slow_job_ms = 0.0;  ///< stderr stage breakdown threshold
  // client-only
  double timeout_seconds = 0.0;
  std::size_t poll_ms = 0;  ///< fixed wait poll interval; 0 = backoff
  bool drain = true;
  bool inline_submit = false;  ///< submit the file's contents, not path
  bool prom = false;  ///< metrics: Prometheus exposition, not JSON
  // replay / campaign
  bool replay_all = false;      ///< replay: whole store, not one id
  std::string state_filter;     ///< replay --state (done|failed|cancelled)
  std::string model_filter;     ///< replay --model (input content hash)
  std::uint64_t from_id = 0;    ///< replay --from (0 = unbounded)
  std::uint64_t to_id = 0;      ///< replay --to (0 = unbounded)
  bool campaign_table = false;  ///< campaign: render as an ASCII table
  // Which job flags were explicitly passed: a client submit sends only
  // those, so the rest fall back to the serve-side job defaults.
  bool poles_set = false;
  bool vf_iters_set = false;
  bool stop_after_set = false;
};

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  phes_pipeline run <file> [flags]\n"
               "  phes_pipeline batch <dir> [flags]\n"
               "  phes_pipeline gen <dir> [count]\n"
               "  phes_pipeline serve <socket> [--tcp HOST:PORT "
               "--auth-token-file FILE] [flags]\n"
               "  phes_pipeline client <endpoint> submit <file> "
               "[--inline] [flags]\n"
               "  phes_pipeline client <endpoint> "
               "status|result|cancel|wait|trace [id]\n"
               "  phes_pipeline client <endpoint> ping|shutdown\n"
               "  phes_pipeline client <endpoint> metrics [--prom]\n"
               "  phes_pipeline client <endpoint> replay <id>\n"
               "  phes_pipeline client <endpoint> replay --all "
               "[--state S --model H --from N --to N]\n"
               "  phes_pipeline client <endpoint> campaign <id> "
               "[--table]\n"
               "  (<endpoint> = socket path | tcp:HOST:PORT)\n"
               "flags: --poles N --vf-iters N --threads N --jobs N\n"
               "       --solver-threads N --stop-after STAGE\n"
               "       --summary-json PATH --verbose\n"
               "serve: --queue N --tcp HOST:PORT --auth-token-file FILE\n"
               "       --data-dir DIR --retain-records N --retain-mb N\n"
               "       --retain-ttl SECONDS\n"
               "       --trace-file PATH --slow-job-ms N\n"
               "client: --timeout SECONDS --poll-ms N (wait), "
               "--no-drain (shutdown),\n"
               "        --inline (submit), --auth-token-file FILE (tcp)\n"
               "        --all --state S --model H --from N --to N "
               "(replay),\n"
               "        --table (campaign)\n"
               "wait exit codes: 0 done, 1 failed, 3 cancelled, "
               "4 timeout\n");
  return 2;
}

/// First line of `path`, trailing whitespace stripped — the shared
/// auth token.  Throws when the file cannot be read or is empty.
std::string read_token_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read token file '" + path + "'");
  }
  std::string token;
  std::getline(in, token);
  while (!token.empty() &&
         (token.back() == '\r' || token.back() == ' ' ||
          token.back() == '\t')) {
    token.pop_back();
  }
  if (token.empty()) {
    throw std::runtime_error("token file '" + path + "' is empty");
  }
  return token;
}

std::size_t parse_count(const char* text, const char* flag) {
  // Digits only: strtoul itself skips leading whitespace and wraps a
  // leading '-' to a huge count.
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 ||
      *end != '\0' || errno == ERANGE) {
    throw std::invalid_argument(std::string(flag) + ": expected a number, "
                                "got '" + text + "'");
  }
  return value;
}

CliOptions parse_flags(int argc, char** argv, int first) {
  CliOptions cli;
  cli.job.fit.num_poles = 12;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + ": missing value");
      }
      return argv[++i];
    };
    if (flag == "--poles") {
      cli.job.fit.num_poles = parse_count(value(), "--poles");
      cli.poles_set = true;
    } else if (flag == "--vf-iters") {
      cli.job.fit.iterations = parse_count(value(), "--vf-iters");
      cli.vf_iters_set = true;
    } else if (flag == "--threads") {
      cli.batch.total_threads = parse_count(value(), "--threads");
    } else if (flag == "--jobs") {
      cli.batch.job_workers = parse_count(value(), "--jobs");
    } else if (flag == "--solver-threads") {
      cli.batch.solver_threads = parse_count(value(), "--solver-threads");
    } else if (flag == "--stop-after") {
      cli.job.stop_after = pipeline::parse_stage(value());
      cli.stop_after_set = true;
    } else if (flag == "--summary-json") {
      cli.summary_json = value();
    } else if (flag == "--verbose") {
      cli.verbose = true;
    } else if (flag == "--queue") {
      cli.queue_capacity = parse_count(value(), "--queue");
    } else if (flag == "--tcp") {
      cli.tcp_endpoint = value();
    } else if (flag == "--auth-token-file") {
      cli.auth_token_file = value();
    } else if (flag == "--data-dir") {
      cli.data_dir = value();
    } else if (flag == "--retain-records") {
      cli.retain_records = parse_count(value(), "--retain-records");
    } else if (flag == "--retain-mb") {
      cli.retain_mb = parse_count(value(), "--retain-mb");
    } else if (flag == "--retain-ttl") {
      const char* text = value();
      char* end = nullptr;
      cli.retain_ttl = std::strtod(text, &end);
      if (end == text || *end != '\0' || cli.retain_ttl < 0.0) {
        throw std::invalid_argument(
            std::string("--retain-ttl: expected seconds, got '") + text +
            "'");
      }
    } else if (flag == "--trace-file") {
      cli.trace_file = value();
    } else if (flag == "--slow-job-ms") {
      const char* text = value();
      char* end = nullptr;
      cli.slow_job_ms = std::strtod(text, &end);
      if (end == text || *end != '\0' || cli.slow_job_ms < 0.0) {
        throw std::invalid_argument(
            std::string("--slow-job-ms: expected milliseconds, got '") +
            text + "'");
      }
    } else if (flag == "--prom") {
      cli.prom = true;
    } else if (flag == "--poll-ms") {
      cli.poll_ms = parse_count(value(), "--poll-ms");
    } else if (flag == "--inline") {
      cli.inline_submit = true;
    } else if (flag == "--all") {
      cli.replay_all = true;
    } else if (flag == "--state") {
      cli.state_filter = value();
    } else if (flag == "--model") {
      cli.model_filter = value();
    } else if (flag == "--from") {
      cli.from_id = parse_count(value(), "--from");
    } else if (flag == "--to") {
      cli.to_id = parse_count(value(), "--to");
    } else if (flag == "--table") {
      cli.campaign_table = true;
    } else if (flag == "--timeout") {
      const char* text = value();
      char* end = nullptr;
      cli.timeout_seconds = std::strtod(text, &end);
      if (end == text || *end != '\0' || cli.timeout_seconds < 0.0) {
        throw std::invalid_argument(
            std::string("--timeout: expected seconds, got '") + text + "'");
      }
    } else if (flag == "--no-drain") {
      cli.drain = false;
    } else {
      throw std::invalid_argument("unknown flag '" + flag + "'");
    }
  }
  return cli;
}

void print_job_detail(const pipeline::PipelineResult& r, bool verbose) {
  std::printf("[%s] %s", r.status().c_str(), r.name.c_str());
  if (r.order > 0) {
    std::printf("  (p=%zu, n=%zu, fit rms %.2e)", r.ports, r.order,
                r.fit_rms);
  }
  std::printf("  %.3f s\n", r.total_seconds);
  if (!r.ok) {
    std::printf("    error: %s\n", r.error.c_str());
    return;
  }
  if (verbose) {
    for (const auto& t : r.stage_timings) {
      std::printf("    %-12s %8.3f s\n", pipeline::stage_name(t.stage),
                  t.seconds);
    }
  }
  for (const auto& band : r.initial_report.bands) {
    std::printf("    violation [%.6g, %.6g] peak sigma %.6f at w=%.6g\n",
                band.omega_lo, band.omega_hi, band.sigma_peak,
                band.omega_peak);
  }
  if (r.enforcement_run) {
    std::printf("    enforced in %zu iterations, residue change %.2e\n",
                r.enforcement.iterations,
                r.enforcement.relative_model_change);
  }
  if (r.session.solves > 0) {
    std::printf("    eigensolves: %zu run (%zu dense), "
                "%zu factorization(s) built\n",
                r.session.solves, r.session.dense_solves,
                r.session.factorizations);
  }
}

int run_batch(std::vector<pipeline::PipelineJob> jobs,
              const CliOptions& cli) {
  for (auto& job : jobs) job.options = cli.job;

  const pipeline::BatchRunner runner(cli.batch);
  const auto plan = runner.plan_for(jobs.size());
  std::printf("running %zu job(s): %zu concurrent x %zu solver "
              "thread(s)\n",
              jobs.size(), plan.job_workers, plan.solver_threads);

  const auto results = runner.run_all(std::move(jobs));
  for (const auto& r : results) print_job_detail(r, cli.verbose);

  std::printf("\n");
  pipeline::summary_table(results).print(std::cout);
  if (!cli.summary_json.empty()) {
    pipeline::write_summary_json_file(results, cli.summary_json);
    std::printf("wrote JSON summary to %s\n", cli.summary_json.c_str());
  }
  const std::size_t ok = pipeline::count_succeeded(results);
  std::printf("\n%zu/%zu job(s) succeeded\n", ok, results.size());
  return ok == results.size() ? 0 : 1;
}

int cmd_run(const std::string& path, const CliOptions& cli) {
  pipeline::PipelineJob job;
  job.input_path = path;
  return run_batch({std::move(job)}, cli);
}

bool is_samples_file(const fs::path& path) {
  std::string ext = path.extension().string();
  std::transform(ext.begin(), ext.end(), ext.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return ext == ".txt" || io::is_touchstone_path(path.string());
}

int cmd_batch(const std::string& dir, const CliOptions& cli) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "error: '%s' is not a directory\n", dir.c_str());
    return 2;
  }
  std::vector<pipeline::PipelineJob> jobs;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file() || !is_samples_file(entry.path())) continue;
    pipeline::PipelineJob job;
    job.input_path = entry.path().string();
    job.name = entry.path().filename().string();
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "error: no .sNp or .txt samples files in %s\n",
                 dir.c_str());
    return 2;
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return run_batch(std::move(jobs), cli);
}

// ---- server mode -----------------------------------------------------

volatile std::sig_atomic_t g_interrupted = 0;

void handle_signal(int) { g_interrupted = 1; }

int cmd_serve(const std::string& socket_path, const CliOptions& cli) {
  server::ServerOptions options;
  options.queue_capacity = cli.queue_capacity;
  options.workers = cli.batch.job_workers;
  options.solver_threads = cli.batch.solver_threads;
  options.job_defaults = cli.job;
  options.max_finished_records = cli.retain_records;
  options.data_dir = cli.data_dir;
  options.retain_bytes = cli.retain_mb << 20;
  options.retain_ttl_seconds = cli.retain_ttl;
  options.trace_file = cli.trace_file;
  options.slow_job_ms = cli.slow_job_ms;

  server::JobServer server(options);
  // Counter lookup in a metrics snapshot (absent names read 0).
  const auto counter = [](const obs::MetricsSnapshot& snapshot,
                          const char* name) -> unsigned long long {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  if (!cli.data_dir.empty()) {
    const obs::MetricsSnapshot recovery = server.metrics_snapshot();
    std::printf("durable store %s: %llu record(s) recovered",
                cli.data_dir.c_str(),
                counter(recovery, "phes_store_recovered_total"));
    if (const auto lost = counter(recovery, "phes_store_lost_total")) {
      std::printf(", %llu marked lost (were in flight at the crash)", lost);
    }
    std::printf("\n");
  }

  std::vector<std::unique_ptr<server::Transport>> transports;
  transports.push_back(
      std::make_unique<server::UnixTransport>(socket_path));
  if (!cli.tcp_endpoint.empty()) {
    const server::Endpoint tcp =
        server::parse_endpoint("tcp:" + cli.tcp_endpoint);
    if (cli.auth_token_file.empty()) {
      std::fprintf(stderr,
                   "error: --tcp requires --auth-token-file (refusing an "
                   "unauthenticated remote listener)\n");
      return 2;
    }
    transports.push_back(std::make_unique<server::TcpTransport>(
        tcp.host, tcp.port, read_token_file(cli.auth_token_file)));
  }
  server::TransportServer transport(server, std::move(transports));
  transport.start();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::string endpoints;
  for (const auto& t : transport.transports()) {
    endpoints += endpoints.empty() ? "" : ", ";
    endpoints += t->endpoint();
  }
  std::printf("phes_pipeline serving on %s (%zu worker(s) x %zu solver "
              "thread(s), queue %zu)\n",
              endpoints.c_str(), server.workers(), server.solver_threads(),
              cli.queue_capacity);
  std::fflush(stdout);

  // Block until a client sends the shutdown op, or a signal arrives
  // (poll the flag: POSIX signals cannot wake a condition_variable).
  bool drain = true;
  while (!transport.shutdown_requested()) {
    if (g_interrupted != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (transport.shutdown_requested()) drain = transport.wait_shutdown();

  std::printf("shutting down (%s)...\n", drain ? "drain" : "abort");
  std::fflush(stdout);
  server.shutdown(drain);
  transport.stop();

  const obs::MetricsSnapshot final_metrics = server.metrics_snapshot();
  std::printf("served %llu job(s)\n",
              counter(final_metrics, "phes_jobs_submitted_total"));
  return 0;
}

/// Distinct `client wait` exit codes so scripts can branch on the job
/// outcome (2 stays the usage error).
constexpr int kWaitDone = 0;
constexpr int kWaitFailed = 1;
constexpr int kWaitCancelled = 3;
constexpr int kWaitTimeout = 4;

/// Only flags the user passed go on the wire; everything else falls
/// back to the serve-side job defaults.
std::string options_json_from(const CliOptions& cli) {
  std::string options_json;
  const auto add = [&options_json](const std::string& field) {
    options_json += options_json.empty() ? "" : ", ";
    options_json += field;
  };
  if (cli.poles_set) {
    add("\"poles\": " + std::to_string(cli.job.fit.num_poles));
  }
  if (cli.vf_iters_set) {
    add("\"vf_iters\": " + std::to_string(cli.job.fit.iterations));
  }
  if (cli.stop_after_set) {
    add("\"stop_after\": \"" +
        std::string(pipeline::stage_name(cli.job.stop_after)) + "\"");
  }
  return options_json;
}

int cmd_client(const std::string& endpoint_spec, const std::string& op,
               const char* id_or_file, const CliOptions& cli) {
  server::Endpoint endpoint = server::parse_endpoint(endpoint_spec);
  if (!cli.auth_token_file.empty()) {
    endpoint.token = read_token_file(cli.auth_token_file);
  }

  std::string request;
  if (op == "submit") {
    if (id_or_file == nullptr) return usage();
    const std::string options_json = options_json_from(cli);
    if (cli.inline_submit) {
      // Ship the file's bytes: the server needs no shared filesystem.
      std::ifstream in(id_or_file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "error: cannot read '%s'\n", id_or_file);
        return 2;
      }
      std::ostringstream contents;
      contents << in.rdbuf();
      const std::string filename =
          fs::path(id_or_file).filename().string();
      request = "{\"op\": \"submit_inline\", \"filename\": " +
                server::json_quote(filename) +
                ", \"payload\": " + server::json_quote(contents.str());
    } else {
      const std::string path = fs::absolute(fs::path(id_or_file)).string();
      request =
          "{\"op\": \"submit\", \"path\": " + server::json_quote(path);
    }
    if (!options_json.empty()) {
      request += ", \"options\": {" + options_json + "}";
    }
    request += "}";
  } else if (op == "status" || op == "result" || op == "cancel" ||
             op == "wait" || op == "trace") {
    const std::string wire_op = op == "wait" ? "status" : op;
    request = "{\"op\": \"" + wire_op + "\"";
    if (id_or_file != nullptr) {
      request += ", \"id\": " + std::to_string(
                                    parse_count(id_or_file, op.c_str()));
    } else if (op != "status") {
      std::fprintf(stderr, "error: %s needs a job id\n", op.c_str());
      return 2;
    }
    request += "}";
  } else if (op == "replay") {
    if (id_or_file != nullptr) {
      request = "{\"op\": \"replay\", \"id\": " +
                std::to_string(parse_count(id_or_file, "replay"));
    } else if (cli.replay_all) {
      request = "{\"op\": \"replay\", \"all\": true";
    } else {
      std::fprintf(stderr, "error: replay needs a job id or --all\n");
      return 2;
    }
    if (!cli.state_filter.empty()) {
      request += ", \"state\": " + server::json_quote(cli.state_filter);
    }
    if (!cli.model_filter.empty()) {
      request += ", \"model\": " + server::json_quote(cli.model_filter);
    }
    if (cli.from_id != 0) {
      request += ", \"from\": " + std::to_string(cli.from_id);
    }
    if (cli.to_id != 0) {
      request += ", \"to\": " + std::to_string(cli.to_id);
    }
    request += "}";
  } else if (op == "campaign") {
    if (id_or_file == nullptr) {
      std::fprintf(stderr, "error: campaign needs an id\n");
      return 2;
    }
    request = "{\"op\": \"campaign\", \"id\": " +
              std::to_string(parse_count(id_or_file, "campaign")) + "}";
  } else if (op == "metrics" || op == "ping") {
    request = "{\"op\": \"" + op + "\"}";
  } else if (op == "shutdown") {
    request = std::string("{\"op\": \"shutdown\", \"drain\": ") +
              (cli.drain ? "true" : "false") + "}";
  } else {
    return usage();
  }

  if (op == "wait") {
    // Poll status until the job is terminal (or the timeout runs out).
    // Polls back off exponentially (10 ms doubling to a 500 ms cap) so
    // a long job is not busy-polled at a fixed rate; --poll-ms pins a
    // constant interval instead.
    constexpr std::size_t kPollStartMs = 10;
    constexpr std::size_t kPollCapMs = 500;
    std::size_t poll_ms = cli.poll_ms > 0 ? cli.poll_ms : kPollStartMs;
    server::Client client(endpoint);
    const auto start = std::chrono::steady_clock::now();
    std::size_t polls = 0;
    // How long the wait actually took, on every exit path — scripts
    // timing a pipeline read it off stderr without bracketing the call.
    const auto report_wait = [&] {
      const double waited_ms =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count() *
          1e3;
      std::fprintf(stderr, "waited %.0f ms (%zu poll(s))\n", waited_ms,
                   polls);
    };
    for (;;) {
      const std::string response = client.request(request);
      ++polls;
      const auto json = server::JsonValue::parse(response);
      const server::JsonValue* job = json.find("job");
      if (job == nullptr) {  // error response (unknown id)
        std::printf("%s\n", response.c_str());
        report_wait();
        return kWaitFailed;
      }
      const std::string state = job->string_or("state", "");
      if (state == "done" || state == "failed" || state == "cancelled") {
        std::printf("%s\n", response.c_str());
        report_wait();
        if (state == "done") return kWaitDone;
        return state == "cancelled" ? kWaitCancelled : kWaitFailed;
      }
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (cli.timeout_seconds > 0.0 && elapsed > cli.timeout_seconds) {
        std::fprintf(stderr, "error: timed out after %.0f s (state %s)\n",
                     cli.timeout_seconds, state.c_str());
        report_wait();
        return kWaitTimeout;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      if (cli.poll_ms == 0) poll_ms = std::min(poll_ms * 2, kPollCapMs);
    }
  }

  if (op == "campaign" && cli.campaign_table) {
    // Render the campaign report locally — same philosophy as `metrics
    // --prom`: the server speaks one format (NDJSON), the client
    // reshapes it.
    const std::string response = server::round_trip(endpoint, request);
    const auto json = server::JsonValue::parse(response);
    const server::JsonValue* jobs = json.find("jobs");
    if (!json.bool_or("ok", false) || jobs == nullptr) {
      std::printf("%s\n", response.c_str());
      return 1;
    }
    // "after"/"delta" are null until the replayed job finishes.
    const auto cell = [](const server::JsonValue& job, const char* key) {
      const server::JsonValue* v = job.find(key);
      return v != nullptr && !v->is_null() ? v->as_string()
                                           : std::string("pending");
    };
    util::Table table(
        {"source", "replay", "name", "delta", "before", "after"});
    for (const auto& job : jobs->items()) {
      table.add_row({std::to_string(job.uint_or("source", 0)),
                     std::to_string(job.uint_or("id", 0)),
                     job.string_or("name", ""), cell(job, "delta"),
                     job.string_or("before", ""), cell(job, "after")});
    }
    table.print(std::cout);
    const server::JsonValue* deltas = json.find("deltas");
    std::printf("\ncampaign %llu: %llu/%llu classified (%s), deltas: "
                "%llu identical, %llu numeric, %llu state, "
                "%llu skipped\n",
                static_cast<unsigned long long>(json.uint_or("campaign", 0)),
                static_cast<unsigned long long>(json.uint_or("completed", 0)),
                static_cast<unsigned long long>(json.uint_or("total", 0)),
                json.bool_or("done", false) ? "done" : "running",
                static_cast<unsigned long long>(
                    deltas ? deltas->uint_or("identical", 0) : 0),
                static_cast<unsigned long long>(
                    deltas ? deltas->uint_or("numeric", 0) : 0),
                static_cast<unsigned long long>(
                    deltas ? deltas->uint_or("state", 0) : 0),
                static_cast<unsigned long long>(json.uint_or("skipped", 0)));
    return 0;
  }

  if (op == "metrics" && cli.prom) {
    // Convert the JSON snapshot to Prometheus text exposition locally:
    // the server stays a one-format NDJSON protocol, and anything that
    // can run the client can feed a textfile collector.
    const std::string response = server::round_trip(endpoint, request);
    const auto json = server::JsonValue::parse(response);
    const server::JsonValue* metrics = json.find("metrics");
    if (metrics == nullptr) {
      std::printf("%s\n", response.c_str());
      return 1;
    }
    std::fputs(obs::MetricsSnapshot::from_json(*metrics)
                   .to_prometheus()
                   .c_str(),
               stdout);
    return 0;
  }

  const std::string response = server::round_trip(endpoint, request);
  std::printf("%s\n", response.c_str());
  // Scripting-friendly exit status: "ok": false => 1.
  return response.find("\"ok\": true") != std::string::npos ? 0 : 1;
}

int cmd_gen(const std::string& dir, std::size_t count) {
  fs::create_directories(dir);
  const io::TouchstoneFormat formats[] = {io::TouchstoneFormat::kRI,
                                          io::TouchstoneFormat::kMA,
                                          io::TouchstoneFormat::kDB};
  for (std::size_t i = 0; i < count; ++i) {
    macromodel::SyntheticModelSpec spec;
    spec.ports = 2 + i % 3;
    spec.states = 24 + 12 * (i % 4);
    spec.omega_min = 1.0;
    spec.omega_max = 30.0;
    // Alternate passive / mildly non-passive models.
    spec.target_peak_gain = i % 2 == 0 ? 1.04 : 0.95;
    spec.seed = 2011 + i;
    const auto model = macromodel::make_synthetic_model(spec);
    const auto samples = macromodel::sample_model(model, 0.3, 90.0, 200);

    io::TouchstoneMetadata meta;
    meta.format = formats[i % 3];
    const std::string name = "case" + std::to_string(i + 1) + ".s" +
                             std::to_string(spec.ports) + "p";
    const std::string path = (fs::path(dir) / name).string();
    io::save_touchstone_file(samples, path, meta);
    std::printf("wrote %s (%zu ports, order %zu, peak gain %.2f, %s)\n",
                path.c_str(), spec.ports, spec.states,
                spec.target_peak_gain, io::format_name(meta.format));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") {
      const std::size_t count =
          argc > 3 ? parse_count(argv[3], "count") : 4;
      return cmd_gen(argv[2], count == 0 ? 4 : count);
    }
    if (cmd == "client") {
      // client <socket> <op> [id|file] [flags]
      if (argc < 4) return usage();
      const std::string op = argv[3];
      const bool has_operand =
          argc > 4 && std::strncmp(argv[4], "--", 2) != 0;
      const CliOptions cli =
          parse_flags(argc, argv, has_operand ? 5 : 4);
      return cmd_client(argv[2], op, has_operand ? argv[4] : nullptr, cli);
    }
    const CliOptions cli = parse_flags(argc, argv, 3);
    if (cmd == "run") return cmd_run(argv[2], cli);
    if (cmd == "batch") return cmd_batch(argv[2], cli);
    if (cmd == "serve") return cmd_serve(argv[2], cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
