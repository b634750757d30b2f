// Experiment: section 3.2's vertex-crossing ablation — "Setting the number
// of vertices crossed to one ... decreases the efficiency of scalability
// because there is a smaller total amount of work done between
// synchronizations. Increasing the number of vertices to be crossed would
// improve the scaling behavior."
//
// Method: record the 50-taxon search at k = 1, 2, 5 (record_trace.hpp,
// jumble seed 1), scale its costs to Power3+-era speed and compare
// simulated speedups.
#include <cstdio>

#include "fdml.hpp"
#include "record_trace.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 50));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 1858));
  const double slowdown = args.get_double("slowdown", 30.0);

  const auto procs = args.get_int_list("procs", {4, 8, 16, 32, 64});
  std::vector<SearchTrace> traces;
  for (int k : {1, 2, 5}) {
    SearchTrace trace = bench::record_trace(taxa, sites, k, 1).trace;
    trace.scale_costs(slowdown);
    traces.push_back(std::move(trace));
  }

  std::printf("\nSimulated speedup by rearrangement setting (vertices "
              "crossed), %d taxa x %zu sites\n", taxa, sites);
  std::printf("%11s", "processors");
  for (int k : {1, 2, 5}) std::printf("      k=%d", k);
  std::printf("  %8s\n", "workers");

  for (std::int64_t p : procs) {
    std::printf("%11lld", static_cast<long long>(p));
    SimClusterConfig config = sp_era_config(static_cast<int>(p), slowdown);
    for (const SearchTrace& trace : traces) {
      std::printf(" %8.2f", simulated_speedup(trace, config));
    }
    std::printf("  %8d\n", config.workers());
  }

  // Barrier-slack view of the same traces at 64 processors.
  std::printf("\nMean barrier slack and worker utilization at 64 "
              "processors:\n");
  const int ks[] = {1, 2, 5};
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const SimClusterConfig config = sp_era_config(64, slowdown);
    const SimResult r = simulate_trace(traces[i], config);
    std::printf("  k=%d: slack %.3fs/round, utilization %.0f%%, "
                "total tasks %zu\n", ks[i], r.mean_round_slack_seconds,
                100.0 * r.worker_utilization, traces[i].total_tasks());
  }
  std::printf("\nPaper's claim: crossing one vertex lowers the efficiency of "
              "scalability, and crossing\nmore vertices improves it (the "
              "paper ran its study at k=5).\n");
  return 0;
}
