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
//         --checkpoint-dir=ckpts
//
//   # a non-master rank (foreman/monitor/worker), reconnect-hardened, is a
//   # fastdnamlpp socket rank: its default model (F84, ts/tv 2, uniform
//   # rates) is the one --mode=serve fixes
//   fastdnamlpp --transport=socket --rank=3 --port=7100 --fabric-size=6
//         --taxa=12 --sites=300 --reconnect --heartbeat-ms=250
//
//   # submit one job and wait for its tree (exit 0 done, 3 shed, 4 failed)
//   fdmld --mode=submit --service-port=7200 --seed=11 --out=job11.nwk
//
//   # Prometheus text exposition: the hub's registry as rank 0 (service.*
//   # and job.<id>.* counters), per-rank telemetry and per-job progress;
//   # per-rank series need the fabric started with --telemetry-ms=N
//   fdmld --mode=scrape --service-port=7200
//
//   # the serial reference for bit-for-bit comparison is fastdnamlpp:
//   fastdnamlpp --taxa=12 --sites=300 --seed=11 --out=ref11.nwk
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

#include "front_end.hpp"

namespace {

using namespace fdml;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

void install_signal_handlers() {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
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
  const std::optional<Alignment> alignment = front_end::load_dataset(args);
  if (!alignment.has_value()) return 1;
  const PatternAlignment data(*alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();

  SocketRunOptions cluster_options = front_end::socket_options(args);
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
      const std::optional<Alignment> alignment = front_end::load_dataset(args);
      if (!alignment.has_value() ||
          !front_end::write_result_file(args.get("out", ""), outcome.newick,
                                        PatternAlignment(*alignment),
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

/// --mode=scrape: one Prometheus scrape, written to --out or stdout.
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
  if (!front_end::init_logging(args)) return 2;
  const std::string mode = args.get("mode", "");
  if (mode == "serve") return run_serve(args);
  if (mode == "submit") return run_submit(args);
  if (mode == "scrape") return run_scrape(args);
  if (mode == "proxy") return run_proxy(args);
  std::fprintf(stderr,
               "usage: fdmld --mode=serve|submit|scrape|proxy [flags]\n");
  return 2;
}
