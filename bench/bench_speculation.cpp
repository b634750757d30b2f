// Experiment: section 3.2's open question — Ceron et al.'s parallel DNAml
// "performs speculative calculations based on the relatively low
// probability of a local rearrangement improving the likelihood ... We have
// not studied the runtime behavior of our implementation ... to see if such
// a feature would enhance the scalability of the parallel version of
// fastDNAml. We plan to do so." This bench is that study, on the
// discrete-event model replaying recorded 50-taxon searches at k = 1 and 5
// (record_trace.hpp, jumble seed 1): barriers after rearrangement rounds
// are crossed speculatively; improving rounds waste the speculative work.
#include <cstdio>

#include "fdml.hpp"
#include "record_trace.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 50));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 1858));
  const double slowdown = args.get_double("slowdown", 30.0);

  std::printf("Speculative dispatch across rearrangement barriers "
              "(%d taxa x %zu sites)\n\n", taxa, sites);
  for (int cross : {1, 5}) {
    SearchTrace trace = bench::record_trace(taxa, sites, cross, 1).trace;
    trace.scale_costs(slowdown);
    std::printf("k=%d\n", cross);
    std::printf("%11s %12s %12s %9s %12s %9s\n", "processors", "normal",
                "speculative", "gain", "speculated", "wasted");
    for (std::int64_t p : args.get_int_list("procs", {8, 16, 32, 64})) {
      const SimClusterConfig config = sp_era_config(static_cast<int>(p), slowdown);
      const double normal = simulate_trace(trace, config).wall_seconds;
      const SpeculativeResult spec = simulate_trace_speculative(trace, config);
      std::printf("%11lld %11.0fs %11.0fs %8.1f%% %12zu %9zu\n",
                  static_cast<long long>(p), normal, spec.sim.wall_seconds,
                  100.0 * (normal - spec.sim.wall_seconds) / normal,
                  spec.speculated_rounds, spec.wasted_speculations);
    }
    std::printf("\n");
  }
  std::printf("Expected shape: larger gains at k=1 (narrow rounds, many "
              "barriers) than at k=5.\n");
  return 0;
}
