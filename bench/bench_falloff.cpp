// Experiment: section 3.2's prediction — "the scalability will likely fall
// off at between 100 and 200 processors, since the number of processors
// will equal or exceed the number of trees analyzed in the taxon addition
// step for much of the execution of the program."
//
// Method: record one 150-taxon search (record_trace.hpp, jumble seed 1),
// replay it across 16..512 processors and report where marginal speedup
// collapses. Insertion rounds have at most 2n-5 = 295 tasks (and far fewer
// for most of the run), so worker counts beyond the round width idle at
// every barrier — unless the foreman, which pays two message costs per
// task, saturates first.
#include <algorithm>
#include <cstdio>

#include "fdml.hpp"
#include "record_trace.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 150));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 1269));
  const int cross = static_cast<int>(args.get_int("cross", 1));
  const double slowdown = args.get_double("slowdown", 30.0);

  SearchTrace trace = bench::record_trace(taxa, sites, cross, 1).trace;
  trace.scale_costs(slowdown);

  // Width statistics of the parallel rounds.
  std::size_t max_width = 0;
  double width_sum = 0.0;
  std::size_t width_count = 0;
  for (const auto& round : trace.rounds) {
    max_width = std::max(max_width, round.task_cpu_seconds.size());
    width_sum += static_cast<double>(round.task_cpu_seconds.size());
    ++width_count;
  }
  std::printf("Workload: %d taxa x %zu sites, k=%d; %zu rounds, mean width "
              "%.1f tasks, max width %zu\n\n", taxa, sites, cross,
              trace.rounds.size(), width_sum / width_count, max_width);

  std::printf("%11s %9s %9s %13s %13s\n", "processors", "workers", "speedup",
              "utilization", "marginal");
  double previous_speedup = 0.0;
  int previous_p = 1;
  for (std::int64_t p :
       args.get_int_list("procs", {16, 32, 64, 96, 128, 160, 192, 256, 384, 512})) {
    SimClusterConfig config = sp_era_config(static_cast<int>(p), slowdown);
    const SimResult r = simulate_trace(trace, config);
    const double speedup = simulated_speedup(trace, config);
    // Marginal speedup per added processor since the previous row.
    const double marginal =
        (speedup - previous_speedup) / static_cast<double>(p - previous_p);
    std::printf("%11lld %9d %9.2f %12.0f%% %13.3f\n", static_cast<long long>(p),
                config.workers(), speedup, 100.0 * r.worker_utilization,
                previous_speedup > 0.0 ? marginal : 0.0);
    previous_speedup = speedup;
    previous_p = static_cast<int>(p);
  }

  // Two caps that bind before the round width does: the foreman spends two
  // message costs per task, and the master generates candidates serially.
  const double mean_task =
      trace.total_task_seconds() / static_cast<double>(trace.total_tasks());
  const double message = sp_era_config(4, slowdown).message_overhead_seconds;
  const double master_share =
      trace.total_master_seconds() /
      (trace.total_master_seconds() + trace.total_task_seconds());
  std::printf("\nCaps: the foreman (2 x %.1f ms per task, mean task %.1f ms) "
              "keeps at most ~%.0f workers busy;\nthe master's serial %.1f%% "
              "of CPU caps the speedup at %.1fx.\n",
              1e3 * message, 1e3 * mean_task, mean_task / (2.0 * message),
              100.0 * master_share, 1.0 / master_share);
  std::printf("Paper's claim: marginal gain collapses in the 100-200 "
              "processor range, as workers\nexceed the task width of most "
              "rounds.\n");
  return 0;
}
