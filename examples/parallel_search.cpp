// Parallel search: the paper's master/foreman/worker/monitor layout running
// over the in-process thread transport, or across real OS processes over
// the TCP socket transport.
//
//   ./parallel_search --workers=4 --taxa=20 --sites=600 --seed=3
//   ./parallel_search --timeout-ms=5000        # fault-tolerance timeout
//   ./parallel_search --chaos="chaos-plan v1 seed=7 drop=0.05 delay=0.2"
//                                              # seeded fault injection
//   ./parallel_search --checkpoint=run.ckpt --keep=3
//                                              # durable restart checkpoints
//   ./parallel_search --resume=run.ckpt --out=best.nwk
//                                              # continue after a kill -9
//   ./parallel_search --trace-out=run.json --log-level=info
//                                              # Chrome trace + live logs
//   ./parallel_search --sim-trace-out=sim.json --sim-procs=7
//                                              # simulated replay trace
//
//   # Multi-process: one rank per process (0=master, 1=foreman, 2=monitor,
//   # 3..=workers); scripts/launch_cluster.sh spawns all of them.
//   ./parallel_search --transport=socket --rank=N --port=P --fabric-size=6
//
// Prints the result plus a run report from the foreman's counters, the
// search trace and each worker's final telemetry frame. The barrier slack
// that limits scalability (the paper's "loosely synchronized" comparison
// barriers) comes from trace_report on the --trace-out file.
#include <cstdio>
#include <fstream>
#include <string>

#include "fdml.hpp"

namespace {

using namespace fdml;

/// Runs (or resumes) the search over whichever runner the transport mode
/// built. Returns false on a usage error (bad --resume path).
bool run_search(const PatternAlignment& data, const Alignment& alignment,
                const CliArgs& args, TaskRunner& runner, SearchResult& result) {
  SearchOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.rearrange_cross = static_cast<int>(args.get_int("cross", 1));
  options.checkpoint_path = args.get("checkpoint", "");
  options.checkpoint_keep = static_cast<std::uint64_t>(args.get_int("keep", 3));
  options.dataset_fingerprint = alignment_fingerprint(data);
  (void)alignment;

  if (args.has("resume")) {
    // Crash recovery: roll back to the newest valid checkpoint generation
    // (fingerprint-checked against this alignment) and continue from there.
    // The completed result is bit-for-bit the uninterrupted run's.
    const std::string resume_path = args.get("resume", "");
    const auto recovered =
        recover_checkpoint(resume_path, options.dataset_fingerprint);
    if (!recovered.has_value()) {
      std::fprintf(stderr, "error: no usable checkpoint at %s\n",
                   resume_path.c_str());
      return false;
    }
    std::printf("resuming from %s (generation %llu, %d of %zu taxa placed)\n",
                recovered->path.c_str(),
                static_cast<unsigned long long>(recovered->generation),
                recovered->checkpoint.next_order_index, data.num_taxa());
    if (options.checkpoint_path.empty()) options.checkpoint_path = resume_path;
    options.seed = recovered->checkpoint.seed;
    result = StepwiseSearch(data, options).resume(runner, recovered->checkpoint);
  } else {
    result = StepwiseSearch(data, options).run(runner);
  }
  return true;
}

bool write_trace_file(const std::string& path) {
  obs::Tracer::instance().disable();
  const obs::TraceLog log = obs::Tracer::instance().drain();
  std::ofstream out(path);
  log.write_chrome(out);
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote trace: %s (%zu events, %llu dropped)\n", path.c_str(),
              log.events.size(),
              static_cast<unsigned long long>(log.dropped_events));
  return true;
}

bool write_result_file(const std::string& path, const Tree& best,
                       const PatternAlignment& data, double log_likelihood) {
  // Canonical result file for the recovery/equivalence smoke tests: runs
  // that must agree are compared byte-for-byte on this file.
  std::ofstream out(path);
  out << to_newick(best, data.names(), 10) << "\n";
  char lnl[64];
  std::snprintf(lnl, sizeof lnl, "lnL %.6f\n", log_likelihood);
  out << lnl;
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

SocketRunOptions socket_options_from_args(const CliArgs& args) {
  SocketRunOptions options;
  options.socket.rank = static_cast<int>(args.get_int("rank", 0));
  options.socket.size = static_cast<int>(args.get_int("fabric-size", 0));
  options.socket.host = args.get("host", "127.0.0.1");
  options.socket.port =
      static_cast<std::uint16_t>(args.get_int("port", 0));
  options.socket.connect_timeout =
      std::chrono::milliseconds(args.get_int("connect-timeout-ms", 15000));
  options.foreman.worker_timeout =
      std::chrono::milliseconds(args.get_int("timeout-ms", 30000));
  return options;
}

/// A non-master rank of a multi-process run: execute the role loop until
/// the fabric shuts down, then print a one-line summary.
int run_socket_peer(const CliArgs& args, const PatternAlignment& data,
                    const SubstModel& model, const RateModel& rates,
                    const std::string& trace_out) {
  const SocketRunOptions options = socket_options_from_args(args);
  SocketRoleResult role;
  try {
    role = run_socket_role(data, model, rates, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rank %lld: %s\n",
                 static_cast<long long>(args.get_int("rank", 0)), error.what());
    return 1;
  }
  if (role.foreman.has_value()) {
    std::printf("foreman: %llu rounds, %llu tasks, %llu requeues, "
                "%llu quarantines\n",
                static_cast<unsigned long long>(role.foreman->rounds),
                static_cast<unsigned long long>(role.foreman->tasks_completed),
                static_cast<unsigned long long>(role.foreman->requeues),
                static_cast<unsigned long long>(role.foreman->quarantines));
  } else if (role.worker.has_value()) {
    std::printf("worker %d: %llu tasks, %.2fs CPU\n", role.rank,
                static_cast<unsigned long long>(role.worker->tasks_evaluated),
                role.worker->cpu_seconds);
  }
  if (!trace_out.empty()) {
    // Every process traces itself; suffix by rank so a cluster launched
    // with one argv does not clobber a shared path.
    if (!write_trace_file(trace_out + ".rank" + std::to_string(role.rank))) {
      return 1;
    }
  }
  return 0;
}

/// The master rank of a multi-process run: hub + search + result output.
int run_socket_master(const CliArgs& args, const PatternAlignment& data,
                      const Alignment& alignment, const SubstModel& model,
                      const RateModel& rates, const std::string& trace_out) {
  SocketRunOptions options = socket_options_from_args(args);
  options.socket.rank = 0;
  SocketCluster cluster(data, model, rates, options);
  std::printf("Socket cluster: hub on port %u, 1 master + 1 foreman + "
              "1 monitor + %d workers (%d processes)\n",
              static_cast<unsigned>(options.socket.port),
              cluster.num_workers(), options.socket.size);
  if (!cluster.wait_ready(options.socket.connect_timeout)) {
    std::fprintf(stderr, "error: fabric incomplete after %lld ms (some rank "
                 "never announced)\n",
                 static_cast<long long>(options.socket.connect_timeout.count()));
    return 1;
  }
  std::printf("fabric ready: all %d ranks announced\n", options.socket.size);

  Timer timer;
  SearchResult result;
  if (!run_search(data, alignment, args, cluster.runner(), result)) return 1;
  const double wall = timer.seconds();
  cluster.shutdown();

  std::printf("\nBest ln L = %.4f after %zu candidate trees in %.2fs wall\n",
              result.best_log_likelihood, result.trees_evaluated, wall);
  const SocketFabricStats fabric = cluster.fabric_stats();
  std::printf("fabric traffic: %llu frames out / %llu in, %llu bytes out / "
              "%llu in, %llu peer deaths, %llu dropped\n%s",
              static_cast<unsigned long long>(fabric.frames_sent),
              static_cast<unsigned long long>(fabric.frames_received),
              static_cast<unsigned long long>(fabric.bytes_sent),
              static_cast<unsigned long long>(fabric.bytes_received),
              static_cast<unsigned long long>(fabric.peer_deaths),
              static_cast<unsigned long long>(fabric.frames_dropped),
              render_worker_totals(cluster.telemetry()).c_str());
  const MasterStats master = cluster.master_stats();
  if (master.serial_fallbacks > 0 || master.rounds_failed > 0) {
    std::printf("degradation: %llu failed rounds, %llu serial fallbacks\n",
                static_cast<unsigned long long>(master.rounds_failed),
                static_cast<unsigned long long>(master.serial_fallbacks));
  }

  const Tree best = tree_from_newick(result.best_newick, data.names());
  std::printf("\nNewick: %s\n", to_newick(best, data.names(), 6).c_str());
  if (args.has("out") &&
      !write_result_file(args.get("out", ""), best, data,
                         result.best_log_likelihood)) {
    return 1;
  }
  if (!trace_out.empty() && !write_trace_file(trace_out)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level.has_value()) {
      std::fprintf(stderr, "error: bad --log-level (debug|info|warn|error|off)\n");
      return 1;
    }
    set_log_level(*level);
  }
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) obs::Tracer::instance().enable();

  const int taxa = static_cast<int>(args.get_int("taxa", 20));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 600));
  // Every process of a socket run rebuilds the identical dataset from the
  // same flags (or reads the same file), exactly like the paper's PVM
  // processes each loading the alignment.
  Alignment alignment = args.has("input")
                            ? read_phylip_file(args.get("input", ""))
                            : make_paper_like_dataset(taxa, sites, 4242);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();

  const std::string transport = args.get("transport", "thread");
  if (transport == "socket") {
    if (!args.has("port") || !args.has("fabric-size")) {
      std::fprintf(stderr,
                   "error: --transport=socket needs --port and --fabric-size "
                   "(and --rank, 0 for the master)\n");
      return 2;
    }
    const int rank = static_cast<int>(args.get_int("rank", 0));
    return rank == 0
               ? run_socket_master(args, data, alignment, model, rates, trace_out)
               : run_socket_peer(args, data, model, rates, trace_out);
  }
  if (transport != "thread") {
    std::fprintf(stderr, "error: unknown --transport=%s (thread|socket)\n",
                 transport.c_str());
    return 2;
  }

  ClusterOptions cluster_options;
  cluster_options.num_workers = static_cast<int>(args.get_int("workers", 4));
  cluster_options.foreman.worker_timeout =
      std::chrono::milliseconds(args.get_int("timeout-ms", 30000));
  if (args.has("chaos")) {
    // A serialized FaultPlan, e.g. "chaos-plan v1 seed=7 drop=0.05". The
    // same plan line replays the same fault schedule on every run.
    cluster_options.chaos = FaultPlan::parse(args.get("chaos", ""));
  }
  InProcessCluster cluster(data, model, rates, cluster_options);
  std::printf("Cluster: 1 master + 1 foreman + 1 monitor + %d workers "
              "(%d \"processors\")\n",
              cluster.num_workers(), cluster.num_workers() + 3);

  Timer timer;
  SearchResult result;
  if (!run_search(data, alignment, args, cluster.runner(), result)) return 1;
  const double wall = timer.seconds();
  cluster.shutdown();  // joins the role threads; final stats are now stable

  if (!trace_out.empty() && !write_trace_file(trace_out)) return 1;
  if (args.has("sim-trace-out")) {
    // Replay the recorded search trace through the discrete-event cluster
    // and emit the same Chrome-trace vocabulary with virtual timestamps.
    const std::string sim_out = args.get("sim-trace-out", "");
    obs::TraceLog sim_log;
    SimClusterConfig sim_config;
    sim_config.processors = static_cast<int>(args.get_int("sim-procs", 7));
    sim_config.trace = &sim_log;
    const SimResult sim = simulate_trace(result.trace, sim_config);
    std::ofstream out(sim_out);
    sim_log.write_chrome(out);
    if (!out) {
      std::fprintf(stderr, "error writing %s\n", sim_out.c_str());
      return 1;
    }
    std::printf("wrote simulated trace: %s (%d procs, %.3fs virtual wall, "
                "utilization %.2f)\n",
                sim_out.c_str(), sim_config.processors, sim.wall_seconds,
                sim.worker_utilization);
  }

  std::printf("\nBest ln L = %.4f after %zu candidate trees in %.2fs wall\n",
              result.best_log_likelihood, result.trees_evaluated, wall);

  const ForemanStats& foreman = cluster.foreman_stats();
  std::printf("\nRun report\n");
  std::printf("  rounds (barriers):      %llu\n",
              static_cast<unsigned long long>(foreman.rounds));
  std::printf("  tasks completed:        %llu\n",
              static_cast<unsigned long long>(foreman.tasks_completed));
  std::printf("  worker CPU total:       %.2fs\n",
              result.trace.total_task_seconds());
  std::printf("  requeues / delinquent:  %llu / %llu\n",
              static_cast<unsigned long long>(foreman.requeues),
              static_cast<unsigned long long>(foreman.delinquencies));
  std::printf("  fabric traffic:         %llu messages, %llu bytes\n%s",
              static_cast<unsigned long long>(cluster.fabric_messages()),
              static_cast<unsigned long long>(cluster.fabric_bytes()),
              render_worker_totals(cluster.telemetry()).c_str());
  std::printf("  barrier slack:          trace_report on the --trace-out file\n");

  if (const auto totals = cluster.chaos_totals()) {
    std::printf("\nChaos harness (%s)\n",
                cluster_options.chaos->serialize().c_str());
    std::printf("  dropped/duplicated:     %llu / %llu\n",
                static_cast<unsigned long long>(totals->drops.load()),
                static_cast<unsigned long long>(totals->duplicates.load()));
    std::printf("  corrupted/task-corrupt: %llu / %llu\n",
                static_cast<unsigned long long>(totals->corruptions.load()),
                static_cast<unsigned long long>(totals->task_corruptions.load()));
    std::printf("  delayed/reordered:      %llu / %llu\n",
                static_cast<unsigned long long>(totals->delays.load()),
                static_cast<unsigned long long>(totals->reorders.load()));
    std::printf("  crashes:                %llu\n",
                static_cast<unsigned long long>(totals->crashes.load()));
    std::printf("  quarantines/probations: %llu / %llu\n",
                static_cast<unsigned long long>(
                    cluster.foreman_stats().quarantines),
                static_cast<unsigned long long>(
                    cluster.foreman_stats().probations));
    std::printf("  rounds failed/fallback: %llu / %llu\n",
                static_cast<unsigned long long>(
                    cluster.master_stats().rounds_failed),
                static_cast<unsigned long long>(
                    cluster.master_stats().serial_fallbacks));
  }

  const Tree best = tree_from_newick(result.best_newick, data.names());
  std::printf("\nNewick: %s\n", to_newick(best, data.names(), 6).c_str());
  if (args.has("out") &&
      !write_result_file(args.get("out", ""), best, data,
                         result.best_log_likelihood)) {
    return 1;
  }
  return 0;
}
