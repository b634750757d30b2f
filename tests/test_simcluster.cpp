// Tests for the discrete-event cluster simulator that replays recorded
// search traces for the paper's scaling study: its schedule's shape on
// hand-built traces, and a replay of a real search's trace.
#include <gtest/gtest.h>

#include <cmath>

#include "model/simulate.hpp"
#include "search/search.hpp"
#include "simcluster/simulator.hpp"
#include "tree/random.hpp"

namespace fdml {
namespace {

SearchTrace uniform_trace(int rounds, int tasks_per_round, double cost,
                          double master = 0.0) {
  SearchTrace trace;
  trace.num_taxa = 10;
  for (int r = 0; r < rounds; ++r) {
    RoundTrace round;
    round.kind = RoundKind::kRearrange;
    round.taxa_in_tree = 10;
    round.master_seconds = master;
    for (int t = 0; t < tasks_per_round; ++t) {
      round.task_cpu_seconds.push_back(cost);
      round.task_bytes.push_back(400);
    }
    trace.rounds.push_back(std::move(round));
  }
  return trace;
}

TEST(Simulator, SerialReplayIsSumOfCosts) {
  const SearchTrace trace = uniform_trace(5, 8, 0.25, 0.1);
  SimClusterConfig config;
  config.processors = 1;
  const SimResult result = simulate_trace(trace, config);
  EXPECT_NEAR(result.wall_seconds, 5 * (8 * 0.25 + 0.1), 1e-12);
  EXPECT_NEAR(result.busy_seconds, 10.0, 1e-12);
  EXPECT_EQ(result.round_durations.size(), 5u);
  EXPECT_DOUBLE_EQ(result.mean_round_slack_seconds, 0.0);
}

TEST(Simulator, RejectsImpossibleLayouts) {
  const SearchTrace trace = uniform_trace(1, 4, 0.1);
  SimClusterConfig config;
  config.processors = 2;
  EXPECT_THROW(simulate_trace(trace, config), std::invalid_argument);
  config.processors = 3;
  EXPECT_THROW(simulate_trace(trace, config), std::invalid_argument);
}

TEST(Simulator, FourProcessorsSlowerThanSerial) {
  // The paper: "the overhead of communications and processing tasks causes
  // the parallel code running on four processors to be slower than the
  // serial code running on one processor" — both have exactly one worker.
  const SearchTrace trace = uniform_trace(20, 10, 0.05, 0.01);
  SimClusterConfig serial;
  serial.processors = 1;
  SimClusterConfig four;
  four.processors = 4;
  EXPECT_GT(simulate_trace(trace, four).wall_seconds,
            simulate_trace(trace, serial).wall_seconds);
  EXPECT_LT(simulated_speedup(trace, four), 1.0);
}

TEST(Simulator, WallTimeDecreasesWithProcessors) {
  const SearchTrace trace = uniform_trace(10, 64, 0.05, 0.005);
  SimClusterConfig config;
  double previous = 1e100;
  for (int p : {4, 8, 16, 32, 64}) {
    config.processors = p;
    const double wall = simulate_trace(trace, config).wall_seconds;
    EXPECT_LT(wall, previous) << p << " processors";
    previous = wall;
  }
}

TEST(Simulator, SpeedupBoundedByWorkerCount) {
  const SearchTrace trace = uniform_trace(10, 64, 0.05);
  for (int p : {4, 8, 16, 32}) {
    SimClusterConfig config;
    config.processors = p;
    const double speedup = simulated_speedup(trace, config);
    EXPECT_LE(speedup, static_cast<double>(config.workers()) + 1e-9);
    EXPECT_GT(speedup, 0.0);
    const SimResult result = simulate_trace(trace, config);
    EXPECT_LE(result.worker_utilization, 1.0 + 1e-9);
  }
}

TEST(Simulator, SpeedupSaturatesWhenWorkersExceedRoundWidth) {
  // The paper predicts falloff "at between 100 and 200 processors, since
  // the number of processors will equal or exceed the number of trees
  // analyzed in the taxon addition step". With rounds of 12 tasks, worker
  // counts beyond 12 cannot help.
  const SearchTrace trace = uniform_trace(30, 12, 0.05);
  SimClusterConfig narrow;
  narrow.processors = 12 + 3;  // workers == round width
  SimClusterConfig wide;
  wide.processors = 64;
  const double narrow_speedup = simulated_speedup(trace, narrow);
  const double wide_speedup = simulated_speedup(trace, wide);
  EXPECT_NEAR(wide_speedup, narrow_speedup, 0.05 * narrow_speedup);
}

TEST(Simulator, BarrierSlackGrowsWithCostDispersion) {
  // One wave of tasks per round (5 tasks on 5 workers), so slack reflects
  // cost dispersion rather than queueing depth.
  Rng rng(5);
  SearchTrace even = uniform_trace(20, 5, 0.05);
  SearchTrace uneven = uniform_trace(20, 5, 0.05);
  for (auto& round : uneven.rounds) {
    for (double& cost : round.task_cpu_seconds) {
      cost = rng.lognormal_mean_cv(0.05, 1.0);
    }
  }
  SimClusterConfig config;
  config.processors = 8;
  const SimResult even_result = simulate_trace(even, config);
  const SimResult uneven_result = simulate_trace(uneven, config);
  EXPECT_GT(uneven_result.mean_round_slack_seconds,
            2.0 * even_result.mean_round_slack_seconds);
}

TEST(Simulator, BusySecondsInvariantAcrossMachines) {
  const SearchTrace trace = uniform_trace(7, 9, 0.03);
  for (int p : {1, 4, 16}) {
    SimClusterConfig config;
    config.processors = p;
    EXPECT_NEAR(simulate_trace(trace, config).busy_seconds,
                trace.total_task_seconds(), 1e-12);
  }
}

TEST(Simulator, ReplaysRealSearchTrace) {
  Rng rng(31);
  Tree truth = random_yule_tree(9, rng);
  SimulateOptions sim_options;
  sim_options.num_sites = 150;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(9), SubstModel::jc69(),
                         RateModel::uniform(), sim_options, rng);
  const PatternAlignment data(alignment);
  SerialTaskRunner runner(data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions search_options;
  search_options.seed = 3;
  const SearchResult search = StepwiseSearch(data, search_options).run(runner);

  // Modern-CPU tasks on this tiny problem run in ~0.1ms, so use link costs
  // proportionally small; the separate assertion below shows the
  // overhead-dominated regime.
  SimClusterConfig config;
  config.processors = 8;
  config.message_overhead_seconds = 2e-6;
  config.latency_seconds = 1e-6;
  const SimResult parallel = simulate_trace(search.trace, config);
  config.processors = 1;
  const SimResult serial = simulate_trace(search.trace, config);
  EXPECT_GT(parallel.wall_seconds, 0.0);
  EXPECT_LT(parallel.wall_seconds, serial.wall_seconds)
      << "5 workers with cheap messages must beat serial";
  EXPECT_GT(parallel.wall_seconds, serial.wall_seconds / 5.0)
      << "5 workers cannot exceed 5x";
  EXPECT_NEAR(serial.busy_seconds, search.trace.total_task_seconds(), 1e-12);

  // With per-message costs far above the task costs, parallelism loses —
  // the regime the paper avoids by keeping whole-tree optimizations as the
  // unit of work.
  SimClusterConfig expensive;
  expensive.processors = 8;
  expensive.message_overhead_seconds = 5e-3;
  EXPECT_GT(simulate_trace(search.trace, expensive).wall_seconds,
            serial.wall_seconds);
}

}  // namespace
}  // namespace fdml
