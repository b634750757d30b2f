// fdmld — the fault-surviving multi-job inference service.
//
// One long-running server multiplexes many concurrent stepwise searches
// over a single shared worker pool (the paper's PVM fabric reimagined as a
// service): bounded admission with explicit load-shedding, round-robin
// fairness across jobs, per-job supervision with checkpoint-backed retry,
// and graceful drain on SIGTERM.
//
//   # the server (fabric hub + scheduler + service endpoint)
//   fdmld --mode=serve --port=7100 --fabric-size=6 --service-port=7200
//         --taxa=12 --sites=300 --max-active=2 --max-queued=8
//         --checkpoint-dir=ckpts --metrics-out=metrics.json
//
//   # a non-master rank (foreman/monitor/worker), reconnect-hardened
//   fdmld --mode=role --rank=3 --port=7100 --fabric-size=6
//         --taxa=12 --sites=300 --reconnect --heartbeat-ms=250
//
//   # submit one job and wait for its tree (exit 0 done, 3 shed, 4 failed)
//   fdmld --mode=submit --service-port=7200 --seed=11 --out=job11.nwk
//
//   # metrics snapshot (JSON, includes service.*, job.<id>.* counters and
//   # one job_progress row per admitted job)
//   fdmld --mode=stats --service-port=7200
//
//   # Prometheus text exposition (hub + per-rank telemetry + job progress);
//   # per-rank series need the fabric started with --telemetry-ms=N
//   fdmld --mode=scrape --service-port=7200
//
//   # the serial reference for bit-for-bit comparison
//   fdmld --mode=reference --seed=11 --taxa=12 --sites=300 --out=ref11.nwk
//
//   # seeded socket-layer chaos between the ranks and the hub
//   fdmld --mode=proxy --listen-port=7101 --target-port=7100
//         --chaos="chaos-plan v1 seed=9 sock_latency=0.05 sock_close=0.002"
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "fdml.hpp"

namespace {

using namespace fdml;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void install_signal_handlers() {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
}

/// Every process of a deployment rebuilds the identical dataset from the
/// same flags (or reads the same file) — the paper's PVM processes each
/// loading the alignment.
Alignment dataset_from_args(const CliArgs& args) {
  const int taxa = static_cast<int>(args.get_int("taxa", 12));
  const auto sites = static_cast<std::size_t>(args.get_int("sites", 300));
  return args.has("input") ? read_phylip_file(args.get("input", ""))
                           : make_paper_like_dataset(taxa, sites, 4242);
}

/// Canonical result file (same bytes as parallel_search --out and the
/// soak's serial reference): newick at precision 10, then "lnL %.6f".
bool write_result_file(const std::string& path, const std::string& newick,
                       const PatternAlignment& data, double log_likelihood) {
  const Tree best = tree_from_newick(newick, data.names());
  std::ofstream out(path);
  out << to_newick(best, data.names(), 10) << "\n";
  char lnl[64];
  std::snprintf(lnl, sizeof lnl, "lnL %.6f\n", log_likelihood);
  out << lnl;
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  return true;
}

SocketRunOptions socket_options_from_args(const CliArgs& args) {
  SocketRunOptions options;
  options.socket.rank = static_cast<int>(args.get_int("rank", 0));
  options.socket.size = static_cast<int>(args.get_int("fabric-size", 0));
  options.socket.host = args.get("host", "127.0.0.1");
  options.socket.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.socket.connect_timeout =
      std::chrono::milliseconds(args.get_int("connect-timeout-ms", 15000));
  options.foreman.worker_timeout =
      std::chrono::milliseconds(args.get_int("timeout-ms", 8000));
  if (args.has("reconnect")) {
    options.socket.reconnect = true;
    options.socket.reconnect_budget =
        std::chrono::milliseconds(args.get_int("reconnect-budget-ms", 15000));
  }
  if (args.has("heartbeat-ms")) {
    options.foreman.heartbeat_interval =
        std::chrono::milliseconds(args.get_int("heartbeat-ms", 0));
  }
  // --telemetry-ms=N turns on the live telemetry plane: every non-master
  // rank ships metric deltas to the hub each period. With 0 (the default)
  // the only frames are each worker's final totals at shutdown.
  options.telemetry_interval =
      std::chrono::milliseconds(args.get_int("telemetry-ms", 0));
  return options;
}

/// Starts the rotating trace-segment writer when --trace-dir is given.
/// Returns null when tracing-to-segments is off.
std::unique_ptr<obs::TraceSegmentWriter> maybe_start_segments(
    const CliArgs& args) {
  if (!args.has("trace-dir")) return nullptr;
  obs::Tracer::instance().enable();
  obs::TraceSegmentOptions options;
  options.max_segment_bytes = static_cast<std::size_t>(args.get_int(
      "trace-segment-bytes",
      static_cast<std::int64_t>(options.max_segment_bytes)));
  options.max_segments = static_cast<std::size_t>(args.get_int(
      "trace-segments", static_cast<std::int64_t>(options.max_segments)));
  auto writer = std::make_unique<obs::TraceSegmentWriter>(
      args.get("trace-dir", ""), options);
  writer->start();
  return writer;
}

int run_serve(const CliArgs& args) {
  install_signal_handlers();
  // Start trace capture before the cluster so connection setup spans land
  // in the first segment; stopped (final flush) after the drain below so
  // every span has closed by then.
  auto segments = maybe_start_segments(args);
  const Alignment alignment = dataset_from_args(args);
  const PatternAlignment data(alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();

  SocketRunOptions cluster_options = socket_options_from_args(args);
  cluster_options.socket.rank = 0;
  // The service retries failed rounds (the remote foreman may be riding out
  // an outage) before degrading to in-process evaluation.
  cluster_options.master.max_round_retries =
      static_cast<int>(args.get_int("round-retries", 2));
  cluster_options.master.watchdog_timeout =
      std::chrono::milliseconds(args.get_int("watchdog-ms", 60000));
  SocketCluster cluster(data, model, rates, cluster_options);
  std::printf("fdmld: hub on port %u, fabric size %d\n",
              static_cast<unsigned>(cluster_options.socket.port),
              cluster_options.socket.size);
  if (!cluster.wait_ready(cluster_options.socket.connect_timeout)) {
    std::fprintf(stderr, "error: fabric incomplete (some rank never joined)\n");
    return 1;
  }

  SchedulerOptions sched;
  sched.admission.max_active = static_cast<int>(args.get_int("max-active", 2));
  sched.admission.max_queued = static_cast<int>(args.get_int("max-queued", 8));
  sched.max_retries = static_cast<int>(args.get_int("job-retries", 2));
  sched.checkpoint_dir = args.get("checkpoint-dir", "");
  JobScheduler scheduler(data, cluster.runner(), sched);
  ServiceServerOptions server_options;
  server_options.port =
      static_cast<std::uint16_t>(args.get_int("service-port", 0));
  const bool telemetry_on = cluster_options.telemetry_interval.count() > 0;
  if (telemetry_on) server_options.telemetry = &cluster.telemetry();
  ServiceServer server(scheduler, obs::MetricsRegistry::process(),
                       server_options);
  std::printf("fdmld: service ready on port %u (active<=%d queued<=%d)\n",
              static_cast<unsigned>(server.port()), sched.admission.max_active,
              sched.admission.max_queued);
  std::fflush(stdout);

  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    // Telemetry frames that arrive between search rounds sit in the hub's
    // receive queue until someone drains them; this keeps scrapes fresh
    // while the fabric is idle.
    if (telemetry_on) cluster.pump_telemetry();
  }
  // Graceful drain: stop admitting, interrupt every in-flight job at its
  // next durable checkpoint, and report where each one is resumable. The
  // service endpoint stays up through the drain so blocked submitters get
  // their kJobDone(kInterrupted) replies instead of a reset.
  std::printf("fdmld: signal %d, draining\n", static_cast<int>(g_signal));
  scheduler.drain();
  scheduler.wait_all();
  for (const JobOutcome& outcome : scheduler.outcomes()) {
    if (outcome.status == JobStatus::kInterrupted) {
      std::printf("fdmld: job %llu interrupted, resumable at generation %llu\n",
                  static_cast<unsigned long long>(outcome.job_id),
                  static_cast<unsigned long long>(outcome.resume_generation));
    }
  }
  const SchedulerStats stats = scheduler.stats();
  std::printf("fdmld: drained; %llu completed, %llu interrupted, %llu failed, "
              "%llu shed, %llu in flight\n",
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.interrupted),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.rejected_full +
                                              stats.rejected_draining),
              static_cast<unsigned long long>(stats.in_flight));
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out", "");
    std::ofstream out(path);
    out << obs::MetricsRegistry::process().snapshot().to_json();
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", path.c_str());
      return 1;
    }
    std::printf("fdmld: wrote metrics snapshot: %s\n", path.c_str());
  }
  server.close();
  cluster.shutdown();
  if (segments) {
    segments->stop();
    std::printf("fdmld: wrote %llu trace segment(s): %s\n",
                static_cast<unsigned long long>(segments->segments_written()),
                args.get("trace-dir", "").c_str());
  }
  return stats.in_flight == 0 ? 0 : 1;
}

int run_role(const CliArgs& args) {
  auto segments = maybe_start_segments(args);
  const Alignment alignment = dataset_from_args(args);
  const PatternAlignment data(alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();
  const SocketRunOptions options = socket_options_from_args(args);
  SocketRoleResult role;
  try {
    role = run_socket_role(data, model, rates, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rank %d: %s\n", options.socket.rank, error.what());
    return 1;
  }
  if (role.foreman.has_value()) {
    std::printf("foreman: %llu rounds, %llu tasks, %llu delinquencies, "
                "%llu probation passes, %llu heartbeat pings\n",
                static_cast<unsigned long long>(role.foreman->rounds),
                static_cast<unsigned long long>(role.foreman->tasks_completed),
                static_cast<unsigned long long>(role.foreman->delinquencies),
                static_cast<unsigned long long>(role.foreman->probation_passes),
                static_cast<unsigned long long>(role.foreman->heartbeat_pings));
  } else if (role.worker.has_value()) {
    std::printf("worker %d: %llu tasks, %.2fs CPU, %llu telemetry frames\n",
                role.rank,
                static_cast<unsigned long long>(role.worker->tasks_evaluated),
                role.worker->cpu_seconds,
                static_cast<unsigned long long>(role.worker->telemetry_frames));
  }
  if (segments) segments->stop();
  return 0;
}

int run_submit(const CliArgs& args) {
  JobSpec spec;
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.rearrange_cross = static_cast<int>(args.get_int("cross", 1));
  spec.final_rearrange_cross = static_cast<int>(args.get_int("final-cross", 1));
  spec.name = args.get("name", "");
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("service-port", 0));
  const auto timeout =
      std::chrono::milliseconds(args.get_int("wait-timeout-ms", 600000));
  ServiceReply reply;
  try {
    reply = service_submit(host, port, spec, timeout);
  } catch (const ServiceTimeoutError& error) {
    // Distinct from a protocol failure: the server is up but wedged (or the
    // job outlived --wait-timeout-ms). Retry later or raise the timeout.
    std::fprintf(stderr, "submit timed out: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "submit failed: %s\n", error.what());
    return 1;
  }
  if (reply.rejected.has_value()) {
    std::printf("job shed: %s\n", reject_reason_name(*reply.rejected));
    return 3;
  }
  const JobOutcome& outcome = *reply.outcome;
  if (outcome.status == JobStatus::kDone) {
    std::printf("job %llu done: lnL %.6f (%u retries)\n",
                static_cast<unsigned long long>(outcome.job_id),
                outcome.log_likelihood, outcome.retries);
    if (args.has("out")) {
      const Alignment alignment = dataset_from_args(args);
      const PatternAlignment data(alignment);
      if (!write_result_file(args.get("out", ""), outcome.newick, data,
                             outcome.log_likelihood)) {
        return 1;
      }
    }
    return 0;
  }
  if (outcome.status == JobStatus::kInterrupted) {
    std::printf("job %llu interrupted, resumable at generation %llu\n",
                static_cast<unsigned long long>(outcome.job_id),
                static_cast<unsigned long long>(outcome.resume_generation));
    return 4;
  }
  std::fprintf(stderr, "job %llu failed: %s\n",
               static_cast<unsigned long long>(outcome.job_id),
               outcome.error.c_str());
  return 4;
}

int run_stats(const CliArgs& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("service-port", 0));
  std::string json;
  try {
    json = service_query_stats(host, port, std::chrono::milliseconds(
                                               args.get_int("wait-timeout-ms",
                                                            10000)));
  } catch (const ServiceTimeoutError& error) {
    std::fprintf(stderr, "stats timed out: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "stats failed: %s\n", error.what());
    return 1;
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out", ""));
    out << json;
    if (!out) return 1;
  } else {
    std::fputs(json.c_str(), stdout);
  }
  return 0;
}

int run_scrape(const CliArgs& args) {
  const std::string host = args.get("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("service-port", 0));
  std::string text;
  try {
    text = service_scrape(host, port,
                          std::chrono::milliseconds(
                              args.get_int("wait-timeout-ms", 10000)));
  } catch (const ServiceTimeoutError& error) {
    std::fprintf(stderr, "scrape timed out: %s\n", error.what());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scrape failed: %s\n", error.what());
    return 1;
  }
  if (args.has("out")) {
    std::ofstream out(args.get("out", ""));
    out << text;
    if (!out) return 1;
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}

int run_reference(const CliArgs& args) {
  const Alignment alignment = dataset_from_args(args);
  const PatternAlignment data(alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();
  SearchOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.rearrange_cross = static_cast<int>(args.get_int("cross", 1));
  options.final_rearrange_cross =
      static_cast<int>(args.get_int("final-cross", 1));
  options.record_trace = false;
  SerialTaskRunner runner(data, model, rates);
  const SearchResult result = StepwiseSearch(data, options).run(runner);
  std::printf("reference seed %llu: lnL %.6f\n",
              static_cast<unsigned long long>(options.seed),
              result.best_log_likelihood);
  if (args.has("out") &&
      !write_result_file(args.get("out", ""), result.best_newick, data,
                         result.best_log_likelihood)) {
    return 1;
  }
  return 0;
}

int run_proxy(const CliArgs& args) {
  install_signal_handlers();
  ChaosProxyOptions options;
  options.listen_port =
      static_cast<std::uint16_t>(args.get_int("listen-port", 0));
  options.target_host = args.get("host", "127.0.0.1");
  options.target_port =
      static_cast<std::uint16_t>(args.get_int("target-port", 0));
  if (args.has("chaos")) options.plan = FaultPlan::parse(args.get("chaos", ""));
  ChaosProxy proxy(options);
  std::printf("fdmld: chaos proxy ready on port %u -> %s:%u\n",
              static_cast<unsigned>(proxy.port()), options.target_host.c_str(),
              static_cast<unsigned>(options.target_port));
  std::printf("fdmld: plan %s\n", options.plan.serialize().c_str());
  std::fflush(stdout);
  while (g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const ChaosProxyStats stats = proxy.stats();
  std::printf("proxy: %llu connections, %llu chunks, %llu delayed, "
              "%llu corrupted, %llu closed, %llu severed, %llu refused\n",
              static_cast<unsigned long long>(stats.connections),
              static_cast<unsigned long long>(stats.chunks),
              static_cast<unsigned long long>(stats.delays),
              static_cast<unsigned long long>(stats.corruptions),
              static_cast<unsigned long long>(stats.closes),
              static_cast<unsigned long long>(stats.severed),
              static_cast<unsigned long long>(stats.refused));
  proxy.close();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level.has_value()) {
      std::fprintf(stderr,
                   "error: bad --log-level (debug|info|warn|error|off)\n");
      return 2;
    }
    set_log_level(*level);
  }
  const std::string mode = args.get("mode", "");
  if (mode == "serve") return run_serve(args);
  if (mode == "role") return run_role(args);
  if (mode == "submit") return run_submit(args);
  if (mode == "stats") return run_stats(args);
  if (mode == "scrape") return run_scrape(args);
  if (mode == "reference") return run_reference(args);
  if (mode == "proxy") return run_proxy(args);
  std::fprintf(stderr,
               "usage: fdmld "
               "--mode=serve|role|submit|stats|scrape|reference|proxy "
               "[flags]\n");
  return 2;
}
