// Experiment: section 3.2's discussion — "why not simply run a large number
// of serial jobs and achieve in this manner essentially perfect
// scalability, rather than parallelizing the analysis of different trees
// within a single random ordering of taxa?" The paper's answer: the
// practicing biologist benefits from seeing some results relatively
// quickly, and a single serial ordering of the large datasets takes days.
//
// Method: schedule the paper's full study (many random orderings) on a
// P-processor machine two ways and compare makespan and time-to-first-tree:
//   A. intra-run parallelism: orderings run one after another, each using
//      the whole machine (the fastDNAml approach);
//   B. job-level parallelism: independent serial orderings packed onto
//      P processors (perfect scaling, but the first tree takes a full
//      serial runtime).
// Per-ordering times replay recorded searches (record_trace.hpp, jumble
// seeds 1, 3, 5, ...), up to 8 distinct orderings, reused round-robin.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <queue>
#include <vector>

#include "fdml.hpp"
#include "record_trace.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 150));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 1269));
  const int cross = static_cast<int>(args.get_int("cross", 1));
  const int orderings = static_cast<int>(args.get_int("orderings", 200));
  const int processors = static_cast<int>(args.get_int("processors", 64));
  const double slowdown = args.get_double("slowdown", 30.0);

  // Per-ordering serial and parallel runtimes (orderings differ slightly in
  // work, like the paper's ten randomizations did).
  std::vector<double> serial_times;
  std::vector<double> parallel_times;
  const int distinct = std::min(orderings, 8);
  for (int k = 0; k < distinct; ++k) {
    SearchTrace trace =
        bench::record_trace(taxa, sites, cross,
                            1 + 2ULL * static_cast<std::uint64_t>(k))
            .trace;
    trace.scale_costs(slowdown);
    SimClusterConfig serial_config;
    serial_config.processors = 1;
    serial_times.push_back(simulate_trace(trace, serial_config).wall_seconds);
    parallel_times.push_back(
        simulate_trace(trace, sp_era_config(processors, slowdown)).wall_seconds);
  }
  auto at = [&](const std::vector<double>& v, int i) {
    return v[static_cast<std::size_t>(i % distinct)];
  };

  // Mode A: orderings sequentially, each parallel across the machine.
  double mode_a_makespan = 0.0;
  for (int k = 0; k < orderings; ++k) mode_a_makespan += at(parallel_times, k);
  const double mode_a_first = at(parallel_times, 0);

  // Mode B: independent serial jobs, list-scheduled on P processors.
  std::priority_queue<double, std::vector<double>, std::greater<>> cores;
  for (int p = 0; p < processors; ++p) cores.push(0.0);
  double mode_b_first = 1e300;
  double mode_b_makespan = 0.0;
  for (int k = 0; k < orderings; ++k) {
    const double start = cores.top();
    cores.pop();
    const double finish = start + at(serial_times, k);
    mode_b_first = std::min(mode_b_first, finish);
    mode_b_makespan = std::max(mode_b_makespan, finish);
    cores.push(finish);
  }

  const double hour = 3600.0;
  const auto mean = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
  };
  std::printf("\nStudy: %d orderings of %d taxa x %zu sites on %d processors "
              "(k=%d, Power3-era costs)\n\n", orderings, taxa, sites,
              processors, cross);
  std::printf("Mean serial time per ordering:   %8.2f h\n",
              mean(serial_times) / hour);
  std::printf("Mean parallel time per ordering: %8.2f h\n\n",
              mean(parallel_times) / hour);
  std::printf("%40s %14s %18s\n", "", "makespan", "first result in");
  std::printf("%40s %11.1f h %15.2f h\n",
              "A: intra-run parallel (fastDNAml)", mode_a_makespan / hour,
              mode_a_first / hour);
  std::printf("%40s %11.1f h %15.2f h\n",
              "B: independent serial orderings", mode_b_makespan / hour,
              mode_b_first / hour);
  std::printf("\nB finishes the study %.1fx sooner; A hands over the first "
              "tree %.1fx sooner.\n", mode_a_makespan / mode_b_makespan,
              mode_b_first / mode_a_first);
  std::printf("Paper's argument for A: serial jobs scale perfectly, but the "
              "practicing biologist\nbenefits from seeing some results "
              "relatively quickly.\n");
  return 0;
}
