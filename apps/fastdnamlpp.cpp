// fastdnaml++ — the command-line program, in the spirit of the original
// fastDNAml interface: PHYLIP alignment in, maximum-likelihood tree out,
// with jumbles, bootstrap, rate categories, rearrangement control, and the
// parallel runtime behind a flag. Like fastDNAml's serial, PVM and MPI
// builds, the serial, thread-cluster and multi-process runs are one program
// that differs only in the comm layer underneath.
//
//   fastdnamlpp alignment.phy                         # serial, defaults
//   fastdnamlpp alignment.phy --jumble=10 --seed=3    # 10 addition orders
//   fastdnamlpp alignment.phy --workers=8             # parallel cluster
//   fastdnamlpp alignment.phy --bootstrap=100         # bootstrap supports
//   fastdnamlpp alignment.phy --tstv=2.0 --cross=5 --gamma=0.5 --categories=4
//   fastdnamlpp alignment.phy --out=best.nwk --svg=compare.svg
//   fastdnamlpp --taxa=20 --sites=600 --workers=4     # synthetic dataset
//   fastdnamlpp --taxa=20 --workers=4 --chaos="chaos-plan v1 seed=7 drop=0.05"
//                                                     # seeded fault injection
//   scripts/launch_cluster.sh --size=6 -- fastdnamlpp --taxa=16 --sites=400
//                                                     # one process per rank
#include <csignal>
#include <cstdio>
#include <fstream>

#include "front_end.hpp"
#include "util/simd.hpp"

namespace {

// SIGINT/SIGTERM ask the run to stop at the next checkpoint boundary; the
// search throws SearchInterrupted after that checkpoint is durably
// committed, so a ^C'd run is always resumable from its last completed step.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void handle_stop_signal(int signal_number) {
  g_stop_signal = signal_number;
}

void usage(const char* program) {
  std::printf(
      "usage: %s ALIGNMENT.phy [options]\n"
      "       %s --taxa=N [--sites=M] [options]\n"
      "  --taxa=N --sites=M  synthetic paper-like alignment instead of a file\n"
      "                    (default 300 sites, fixed seed 4242)\n"
      "  --seed=N          random seed for taxon addition order (default 1)\n"
      "  --jumble=N        number of random addition orders (default 1)\n"
      "  --bootstrap=N     bootstrap replicates instead of a plain search\n"
      "  --tstv=R          F84 transition/transversion ratio (default 2.0)\n"
      "  --gamma=ALPHA     discrete-gamma rate heterogeneity (off by default)\n"
      "  --categories=N    gamma categories (default 4)\n"
      "  --cross=K         vertices crossed in rearrangements (default 1)\n"
      "  --final-cross=K   final-pass setting (default = --cross)\n"
      "  --adaptive=K      escalate stalled rearrangements up to K\n"
      "  --workers=N       run the parallel cluster with N workers\n"
      "  --timeout-ms=T    worker fault-tolerance timeout (default 30000)\n"
      "  --chaos=PLAN      with --workers: seeded fault injection, e.g.\n"
      "                    \"chaos-plan v1 seed=7 drop=0.05 delay=0.2\"\n"
      "  --transport=T     thread (default) or socket (multi-process TCP;\n"
      "                    launch one process per rank, see\n"
      "                    scripts/launch_cluster.sh)\n"
      "  --rank=N          socket mode: this process's rank (0 = master)\n"
      "  --port=P          socket mode: hub TCP port\n"
      "  --host=H          socket mode: hub address (default 127.0.0.1)\n"
      "  --fabric-size=S   socket mode: total process count\n"
      "  --connect-timeout-ms, --reconnect, --reconnect-budget-ms,\n"
      "  --heartbeat-ms,\n"
      "  --telemetry-ms    socket mode: rendezvous and liveness tuning\n"
      "  --checkpoint=FILE write a restart checkpoint after each addition\n"
      "  --checkpoint-keep=K  checkpoint generations retained (default 3)\n"
      "  --resume=FILE     continue an interrupted run from its checkpoint\n"
      "                    (rolls back to the newest valid generation)\n"
      "  --out=FILE        write the best tree (Newick) and its ln L\n"
      "  --svg=FILE        write a comparison SVG across jumbles\n"
      "  --trace-out=FILE  write a Chrome trace of the run (chrome://tracing;\n"
      "                    feed it to trace_report for utilization tables)\n"
      "  --sim-trace-out=FILE  replay the search through the cluster\n"
      "                    simulator and write its virtual-time trace\n"
      "  --sim-procs=P     simulated processor count (default 7)\n"
      "  --log-level=L     debug|info|warn|error|off (default warn)\n"
      "  --quiet           suppress the ASCII tree\n"
      "  --version         print version and SIMD kernel backend info\n",
      program, program);
}

void print_version() {
  std::printf("fastdnaml++ (fastDNAml reproduction)\n");
  std::printf("simd backend: %s (active)\n",
              fdml::simd::backend_name(fdml::simd::active_backend()));
  std::printf("simd compiled:");
  for (const fdml::simd::Backend b : fdml::simd::compiled_backends()) {
    std::printf(" %s%s", fdml::simd::backend_name(b),
                fdml::simd::cpu_supports(b) ? "" : " (unsupported on this cpu)");
  }
  std::printf("\n");
}

void print_chaos_summary(const fdml::InProcessCluster& cluster,
                         const fdml::FaultPlan& plan) {
  const auto totals = cluster.chaos_totals();
  const fdml::ForemanStats& foreman = cluster.foreman_stats();
  const fdml::MasterStats master = cluster.master_stats();
  std::printf("chaos (%s):\n"
              "  dropped/duplicated %llu/%llu, corrupted/task-corrupt "
              "%llu/%llu, delayed/reordered %llu/%llu, crashes %llu\n"
              "  quarantines/probations %llu/%llu, rounds failed/fallback "
              "%llu/%llu\n",
              plan.serialize().c_str(),
              static_cast<unsigned long long>(totals->drops.load()),
              static_cast<unsigned long long>(totals->duplicates.load()),
              static_cast<unsigned long long>(totals->corruptions.load()),
              static_cast<unsigned long long>(totals->task_corruptions.load()),
              static_cast<unsigned long long>(totals->delays.load()),
              static_cast<unsigned long long>(totals->reorders.load()),
              static_cast<unsigned long long>(totals->crashes.load()),
              static_cast<unsigned long long>(foreman.quarantines),
              static_cast<unsigned long long>(foreman.probations),
              static_cast<unsigned long long>(master.rounds_failed),
              static_cast<unsigned long long>(master.serial_fallbacks));
}

/// Replays the search's recorded trace through the discrete-event cluster
/// and writes the same Chrome-trace vocabulary with virtual timestamps.
bool write_sim_trace(const std::string& path, int processors,
                     const fdml::SearchTrace& trace) {
  fdml::obs::TraceLog sim_log;
  fdml::SimClusterConfig config;
  config.processors = processors;
  config.trace = &sim_log;
  const fdml::SimResult sim = fdml::simulate_trace(trace, config);
  std::printf("simulated %d procs: %.3fs virtual wall, utilization %.2f\n",
              processors, sim.wall_seconds, sim.worker_utilization);
  return fdml::front_end::write_trace_file(path, sim_log);
}

/// A non-master rank of a socket run: runs its role loop until the fabric
/// shuts down, prints one summary line and writes FILE.rankN for
/// --trace-out=FILE. Returns the process exit code.
int run_role(const fdml::CliArgs& args, const fdml::PatternAlignment& data,
             const fdml::SubstModel& model, const fdml::RateModel& rates) {
  using namespace fdml;
  const SocketRunOptions options = front_end::socket_options(args);
  SocketRoleResult role;
  try {
    role = run_socket_role(data, model, rates, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rank %d: %s\n", options.socket.rank, error.what());
    return 1;
  }
  if (role.foreman.has_value()) {
    const ForemanStats& f = *role.foreman;
    std::printf("foreman: %llu rounds, %llu tasks, %llu requeues, "
                "%llu delinquencies, %llu quarantines, %llu probation passes, "
                "%llu heartbeat pings\n",
                static_cast<unsigned long long>(f.rounds),
                static_cast<unsigned long long>(f.tasks_completed),
                static_cast<unsigned long long>(f.requeues),
                static_cast<unsigned long long>(f.delinquencies),
                static_cast<unsigned long long>(f.quarantines),
                static_cast<unsigned long long>(f.probation_passes),
                static_cast<unsigned long long>(f.heartbeat_pings));
  } else if (role.worker.has_value()) {
    std::printf("worker %d: %llu tasks, %.2fs CPU, %llu telemetry frames\n",
                role.rank,
                static_cast<unsigned long long>(role.worker->tasks_evaluated),
                role.worker->cpu_seconds,
                static_cast<unsigned long long>(role.worker->telemetry_frames));
  }
  // Every process traces itself; the rank suffix keeps a cluster launched
  // with one argv from clobbering a shared path.
  const std::string suffix = ".rank" + std::to_string(role.rank);
  return front_end::write_trace(args, suffix) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  if (args.has("version")) {
    print_version();
    return 0;
  }
  if (!front_end::has_dataset(args)) {
    usage(argv[0]);
    return 2;
  }
  if (!front_end::init_logging(args)) return 2;

  const std::optional<Alignment> alignment = front_end::load_dataset(args);
  if (!alignment.has_value()) return 1;
  const PatternAlignment data(*alignment);
  std::printf("fastdnaml++ | %zu taxa x %zu sites -> %zu patterns\n",
              data.num_taxa(), data.num_sites(), data.num_patterns());

  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), args.get_double("tstv", 2.0));
  const RateModel rates =
      args.has("gamma")
          ? RateModel::discrete_gamma(args.get_double("gamma", 0.5),
                                      static_cast<int>(args.get_int("categories", 4)))
          : RateModel::uniform();
  std::printf("model: %s, ts/tv=%.2f, rates: %s\n", model.name().c_str(),
              model.tstv_ratio(), rates.name().c_str());

  const std::string transport = args.get("transport", "thread");
  if (transport != "thread" && transport != "socket") {
    std::fprintf(stderr, "error: unknown --transport=%s (thread|socket)\n",
                 transport.c_str());
    return 2;
  }
  if (args.has("chaos") && (transport == "socket" || !args.has("workers") ||
                            args.has("bootstrap"))) {
    // Faults are injected into the in-process cluster's fabric; a run
    // without one would pass a fault drill with nothing injected.
    std::fprintf(stderr,
                 "error: --chaos needs --workers (thread transport, no "
                 "--bootstrap)\n");
    return 2;
  }
  if (transport == "socket") {
    if (!args.has("port") || !args.has("fabric-size")) {
      std::fprintf(stderr,
                   "error: --transport=socket needs --port and --fabric-size "
                   "(and --rank, 0 for the master)\n");
      return 2;
    }
    if (args.has("bootstrap")) {
      std::fprintf(stderr,
                   "error: --bootstrap is not available over --transport=socket "
                   "(run the plain search; bootstrap uses in-process runners)\n");
      return 2;
    }
    // Every non-master rank loads the same alignment and model flags, runs
    // its role loop (foreman / monitor / worker) until the fabric shuts
    // down, then exits.
    if (args.get_int("rank", 0) != 0) {
      return run_role(args, data, model, rates);
    }
  }

  SearchOptions options;
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.rearrange_cross = static_cast<int>(args.get_int("cross", 1));
  options.final_rearrange_cross =
      static_cast<int>(args.get_int("final-cross", options.rearrange_cross));
  options.adaptive_max_cross = static_cast<int>(args.get_int("adaptive", 0));

  // Bootstrap mode.
  if (args.has("bootstrap")) {
    BootstrapOptions boot;
    boot.replicates = static_cast<int>(args.get_int("bootstrap", 100));
    boot.seed = options.seed;
    boot.search = options;
    std::printf("bootstrap: %d replicates...\n", boot.replicates);
    const BootstrapResult result = run_bootstrap(*alignment, model, rates, boot);
    AsciiOptions ascii;
    ascii.show_support = true;
    std::printf("\nMajority-rule bootstrap consensus "
                "(labels = %% of replicates):\n%s\n",
                render_ascii(result.consensus, ascii).c_str());
    if (args.has("out")) {
      std::ofstream out(args.get("out", ""));
      out << to_newick(result.consensus) << "\n";
      std::printf("wrote %s\n", args.get("out", "").c_str());
    }
    return 0;
  }

  // Plain (possibly jumbled, possibly parallel) search.
  const int jumbles = static_cast<int>(args.get_int("jumble", 1));
  std::unique_ptr<InProcessCluster> cluster;
  std::unique_ptr<SocketCluster> socket_cluster;
  std::unique_ptr<SerialTaskRunner> serial;
  TaskRunner* runner;
  ClusterOptions cluster_options;
  if (transport == "socket") {
    // Rank 0 of a multi-process run: fabric hub + master, everything else
    // is other OS processes rendezvousing on our port.
    SocketRunOptions socket_options = front_end::socket_options(args);
    socket_options.socket.rank = 0;
    socket_cluster =
        std::make_unique<SocketCluster>(data, model, rates, socket_options);
    std::printf("socket cluster: hub on port %u, %d workers (%d processes)\n",
                static_cast<unsigned>(socket_options.socket.port),
                socket_cluster->num_workers(), socket_options.socket.size);
    if (!socket_cluster->wait_ready(socket_options.socket.connect_timeout)) {
      std::fprintf(stderr,
                   "error: fabric incomplete after %lld ms (some rank never "
                   "announced)\n",
                   static_cast<long long>(
                       socket_options.socket.connect_timeout.count()));
      return 1;
    }
    std::printf("fabric ready: all %d ranks announced\n",
                socket_options.socket.size);
    runner = &socket_cluster->runner();
  } else if (args.has("workers")) {
    cluster_options.num_workers = static_cast<int>(args.get_int("workers", 4));
    cluster_options.foreman = front_end::foreman_options(args);
    if (args.has("chaos")) {
      // The same plan line replays the same fault schedule on every run.
      try {
        cluster_options.chaos = FaultPlan::parse(args.get("chaos", ""));
      } catch (const std::exception& error) {
        std::fprintf(stderr, "error: bad --chaos: %s\n", error.what());
        return 2;
      }
    }
    cluster = std::make_unique<InProcessCluster>(data, model, rates, cluster_options);
    runner = &cluster->runner();
    std::printf("parallel: %d workers (+ master/foreman/monitor)\n",
                cluster->num_workers());
  } else {
    serial = std::make_unique<SerialTaskRunner>(data, model, rates);
    runner = serial.get();
  }

  options.checkpoint_path = args.get("checkpoint", "");
  options.checkpoint_keep =
      static_cast<std::uint64_t>(args.get_int("checkpoint-keep", 3));
  options.dataset_fingerprint = alignment_fingerprint(data);
  options.stop_requested = [] { return g_stop_signal != 0; };
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  Timer timer;
  JumbleResult jumbled;
  try {
    if (args.has("resume")) {
      // Crash recovery: roll back to the newest valid checkpoint generation
      // of this dataset and continue; the completed result is bit-for-bit
      // the uninterrupted run's.
      const std::string resume_path = args.get("resume", "");
      const std::optional<RecoveredCheckpoint> recovered =
          front_end::recover_for_resume(resume_path, options.dataset_fingerprint);
      if (!recovered.has_value()) return 1;
      std::printf("resuming from %s (generation %llu, %d of %zu taxa placed)\n",
                  recovered->path.c_str(),
                  static_cast<unsigned long long>(recovered->generation),
                  recovered->checkpoint.next_order_index, data.num_taxa());
      // Continue checkpointing where the interrupted run left off.
      if (options.checkpoint_path.empty()) {
        options.checkpoint_path = resume_path;
      }
      options.seed = recovered->checkpoint.seed;
      jumbled.runs.push_back(
          StepwiseSearch(data, options).resume(*runner, recovered->checkpoint));
    } else {
      jumbled = run_jumbles(data, options, jumbles, *runner);
    }
  } catch (const SearchInterrupted& interrupted) {
    std::printf("\ninterrupted by signal %d; run is resumable at checkpoint "
                "generation %llu (--resume=%s)\n",
                static_cast<int>(g_stop_signal),
                static_cast<unsigned long long>(interrupted.generation()),
                options.checkpoint_path.c_str());
    return 130;
  }
  const SearchResult& best = jumbled.runs[jumbled.best_index];
  std::printf("\n%d ordering(s), %.1fs: best ln L = %.4f "
              "(%zu trees evaluated in the best run)\n",
              jumbles, timer.seconds(), best.best_log_likelihood,
              best.trees_evaluated);
  for (std::size_t k = 0; k < jumbled.runs.size(); ++k) {
    std::printf("  order %2zu: ln L = %.4f%s\n", k,
                jumbled.runs[k].best_log_likelihood,
                k == jumbled.best_index ? "  <- best" : "");
  }

  const Tree tree = tree_from_newick(best.best_newick, data.names());
  if (!args.get_bool("quiet")) {
    GeneralTree display = GeneralTree::from_tree(tree, data.names());
    display.canonicalize();
    std::printf("\n%s\n", render_ascii(display).c_str());
  }
  std::printf("Newick: %s\n", to_newick(tree, data.names(), 6).c_str());

  if (args.has("out") &&
      !front_end::write_result_file(args.get("out", ""), best.best_newick,
                                    data, best.best_log_likelihood)) {
    return 1;
  }
  if (args.has("svg") && jumbles > 1) {
    std::vector<GeneralTree> panels;
    std::vector<std::string> titles;
    for (std::size_t k = 0; k < jumbled.runs.size(); ++k) {
      panels.push_back(GeneralTree::from_tree(
          tree_from_newick(jumbled.runs[k].best_newick, data.names()),
          data.names()));
      titles.push_back("order " + std::to_string(k));
    }
    std::ofstream out(args.get("svg", ""));
    out << render_comparison_svg(panels, {data.names().front()}, titles);
    std::printf("wrote %s\n", args.get("svg", "").c_str());
  }
  if (args.has("sim-trace-out") &&
      !write_sim_trace(args.get("sim-trace-out", ""),
                       static_cast<int>(args.get_int("sim-procs", 7)),
                       best.trace)) {
    return 1;
  }
  if (cluster != nullptr) {
    // Joining every role first makes the counters and the workers' final
    // telemetry frames complete before anything is printed.
    cluster->shutdown();
    const ForemanStats& foreman = cluster->foreman_stats();
    double worker_cpu = 0.0;
    for (const SearchResult& run : jumbled.runs) {
      worker_cpu += run.trace.total_task_seconds();
    }
    std::printf("\ncluster: %llu rounds, %llu tasks (%.2fs worker CPU), "
                "%llu requeues, %llu delinquencies\n"
                "fabric traffic: %llu messages, %llu bytes\n%s",
                static_cast<unsigned long long>(foreman.rounds),
                static_cast<unsigned long long>(foreman.tasks_completed),
                worker_cpu, static_cast<unsigned long long>(foreman.requeues),
                static_cast<unsigned long long>(foreman.delinquencies),
                static_cast<unsigned long long>(cluster->fabric_messages()),
                static_cast<unsigned long long>(cluster->fabric_bytes()),
                render_worker_totals(cluster->telemetry()).c_str());
    if (cluster_options.chaos.has_value()) {
      print_chaos_summary(*cluster, *cluster_options.chaos);
    }
  }
  if (socket_cluster != nullptr) {
    socket_cluster->shutdown();  // drain the peers before reading stats
    const SocketFabricStats fabric = socket_cluster->fabric_stats();
    std::printf("\nfabric: %llu frames out / %llu in, %llu bytes out / "
                "%llu in, %llu peer deaths, %llu dropped\n%s",
                static_cast<unsigned long long>(fabric.frames_sent),
                static_cast<unsigned long long>(fabric.frames_received),
                static_cast<unsigned long long>(fabric.bytes_sent),
                static_cast<unsigned long long>(fabric.bytes_received),
                static_cast<unsigned long long>(fabric.peer_deaths),
                static_cast<unsigned long long>(fabric.frames_dropped),
                render_worker_totals(socket_cluster->telemetry()).c_str());
    const MasterStats master = socket_cluster->master_stats();
    if (master.rounds_failed > 0 || master.serial_fallbacks > 0) {
      std::printf("degradation: %llu failed rounds, %llu serial fallbacks\n",
                  static_cast<unsigned long long>(master.rounds_failed),
                  static_cast<unsigned long long>(master.serial_fallbacks));
    }
  }
  if (cluster != nullptr || socket_cluster != nullptr) {
    std::printf("(utilization and barrier slack: run with --trace-out=FILE, "
                "then trace_report FILE)\n");
  }
  return front_end::write_trace(args) ? 0 : 1;
}
