// Experiments: Figures 3 and 4 — wall time and speedup vs processor count
// (4..64, by powers of two) for the paper's three datasets: 50 and 101 taxa
// x 1858 positions and 150 taxa x 1269 positions, rearrangement setting 5,
// averaged over random taxon orderings, with the serial program as the
// baseline ("the most conservative fashion possible").
//
// Substitution (DESIGN.md): wall times come from discrete-event replays of
// recorded searches (record_trace.hpp: one live 3-worker search per dataset
// and ordering, at full size, jumble seeds 1, 3, 5, ...) on a simulated
// SP-class machine, with costs scaled to Power3+-era speed (--slowdown,
// default 30x this machine). Each recording is also replayed unscaled in
// its own 6-processor layout (default SimClusterConfig) and compared with
// its live wall time.
//
//   ./bench_fig3_fig4_scaling                  # 1 ordering, ~13 min here
//   ./bench_fig3_fig4_scaling --orderings=10   # the paper's averaging
#include <cstdint>
#include <cstdio>
#include <vector>

#include "fdml.hpp"
#include "record_trace.hpp"

namespace {

using namespace fdml;

struct DatasetSpec {
  int taxa;
  std::size_t sites;
};

constexpr DatasetSpec kDatasets[] = {{50, 1858}, {101, 1858}, {150, 1269}};

double mean_wall(const std::vector<SearchTrace>& traces,
                 const SimClusterConfig& config) {
  double total = 0.0;
  for (const SearchTrace& trace : traces) {
    total += simulate_trace(trace, config).wall_seconds;
  }
  return total / static_cast<double>(traces.size());
}

void print_tables(const std::vector<std::vector<SearchTrace>>& traces,
                  const std::vector<std::int64_t>& procs, double slowdown) {
  SimClusterConfig serial;
  serial.processors = 1;
  std::vector<double> serial_means;
  for (const auto& dataset_traces : traces) {
    serial_means.push_back(mean_wall(dataset_traces, serial));
  }
  // walls[p][d]: mean wall-clock seconds per ordering.
  std::vector<std::vector<double>> walls;
  for (std::int64_t p : procs) {
    const SimClusterConfig config = sp_era_config(static_cast<int>(p), slowdown);
    std::vector<double> row;
    for (const auto& dataset_traces : traces) {
      row.push_back(mean_wall(dataset_traces, config));
    }
    walls.push_back(std::move(row));
  }

  // Figure 3: mean wall-clock seconds per ordering.
  std::printf("\n== Figure 3: time to complete one ordering (seconds, "
              "simulated SP) ==\n%11s", "processors");
  for (const auto& dataset_traces : traces) {
    std::printf(" %18s", dataset_traces.front().dataset.c_str());
  }
  std::printf("\n%11s", "1 (serial)");
  for (double s : serial_means) std::printf(" %18.0f", s);
  std::printf("\n");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::printf("%11lld", static_cast<long long>(procs[i]));
    for (double wall : walls[i]) std::printf(" %18.0f", wall);
    std::printf("\n");
  }

  // Figure 4: speedup ratios vs the serial baseline.
  std::printf("\n== Figure 4: scaling ratio vs serial ==\n%11s %9s", "processors",
              "perfect");
  for (const auto& dataset_traces : traces) {
    std::printf(" %18s", dataset_traces.front().dataset.c_str());
  }
  std::printf("\n");
  for (std::size_t i = 0; i < procs.size(); ++i) {
    std::printf("%11lld %9lld", static_cast<long long>(procs[i]),
                static_cast<long long>(procs[i]));
    for (std::size_t d = 0; d < traces.size(); ++d) {
      std::printf(" %18.3f", serial_means[d] / walls[i][d]);
    }
    std::printf("\n");
  }

  // The paper's headline arithmetic for the largest dataset.
  const double at64 = mean_wall(traces.back(), sp_era_config(64, slowdown));
  std::printf("\nHeadline (150 taxa): %.1f days serial vs %.1f hours at 64 "
              "processors;\n200 orderings: %.1f years serial vs %.1f days on "
              "64 processors.\n",
              serial_means.back() / 86400.0, at64 / 3600.0,
              200.0 * serial_means.back() / (365.25 * 86400.0),
              200.0 * at64 / 86400.0);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int orderings = static_cast<int>(args.get_int("orderings", 1));
  const int cross = static_cast<int>(args.get_int("cross", 5));
  const double slowdown = args.get_double("slowdown", 30.0);
  const auto procs = args.get_int_list("procs", {4, 8, 16, 32, 64});

  std::printf("fastdnaml++ scaling study (recorded searches, k=%d, %d "
              "ordering(s), %.0fx CPU slowdown to Power3+ era)\n",
              cross, orderings, slowdown);

  // The simulator against the live run: each recording replayed unscaled
  // in its own layout (master, foreman, monitor and 3 workers).
  SimClusterConfig live_layout;
  live_layout.processors = 6;
  std::vector<std::vector<SearchTrace>> traces;
  for (const DatasetSpec& spec : kDatasets) {
    std::vector<SearchTrace> dataset_traces;
    for (int k = 0; k < orderings; ++k) {
      bench::RecordedTrace recorded = bench::record_trace(
          spec.taxa, spec.sites, cross, 1 + 2ULL * static_cast<std::uint64_t>(k));
      const double replayed =
          simulate_trace(recorded.trace, live_layout).wall_seconds;
      std::printf("    simulator vs live: the unscaled trace replays in %.1f s "
                  "at 6 processors, %.2fx the live wall\n",
                  replayed, replayed / recorded.wall_seconds);
      recorded.trace.scale_costs(slowdown);
      dataset_traces.push_back(std::move(recorded.trace));
    }
    traces.push_back(std::move(dataset_traces));
  }

  print_tables(traces, procs, slowdown);
  return 0;
}
