// The recorder behind the scaling studies: each study replays the trace of
// a live search, recorded at the study's own dataset size. The search runs
// over an in-process cluster of 3 workers, so a task costs the worker CPU
// of one task message (as in the paper's parallel program) and the same
// run gives the live wall time the simulator is checked against. The
// master's recorded time between rounds is its candidate generation. The
// studies slow traces down to Power3+-era speed with
// SearchTrace::scale_costs, master and worker time alike.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "fdml.hpp"

namespace fdml::bench {

struct RecordedTrace {
  SearchTrace trace;
  /// Live wall time of the recorded search.
  double wall_seconds = 0.0;
};

/// Searches make_paper_like_dataset(taxa, sites, 555) under F84 (ts/tv 2,
/// uniform rates) at rearrangement setting `cross` and jumble seed `seed`,
/// and prints the recording's live wall time, rounds and tasks.
inline RecordedTrace record_trace(int taxa, std::size_t sites, int cross,
                                  std::uint64_t seed) {
  const Alignment alignment = make_paper_like_dataset(taxa, sites, 555);
  const PatternAlignment data(alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  ClusterOptions cluster_options;
  cluster_options.num_workers = 3;
  InProcessCluster cluster(data, model, RateModel::uniform(), cluster_options);
  SearchOptions options;
  options.seed = seed;
  options.rearrange_cross = cross;
  options.final_rearrange_cross = cross;
  const Timer timer;
  SearchResult result = StepwiseSearch(data, options).run(cluster.runner());
  RecordedTrace recorded{std::move(result.trace), timer.seconds()};
  SearchTrace& trace = recorded.trace;
  trace.dataset = std::to_string(taxa) + " taxa x " + std::to_string(sites);

  const double task_seconds = trace.total_task_seconds();
  const double master_seconds = trace.total_master_seconds();
  std::printf("  recorded %s, k=%d, seed %llu: %.1f s live wall, %zu rounds, "
              "%zu tasks (mean %.2f ms), master %.1f%% of CPU\n",
              trace.dataset.c_str(), cross,
              static_cast<unsigned long long>(seed), recorded.wall_seconds,
              trace.rounds.size(), trace.total_tasks(),
              1e3 * task_seconds / static_cast<double>(trace.total_tasks()),
              100.0 * master_seconds / (master_seconds + task_seconds));
  std::fflush(stdout);
  return recorded;
}

}  // namespace fdml::bench
