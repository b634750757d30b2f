// Discrete-event simulation of the master/foreman/worker schedule.
//
// The paper measured wall-clock scaling on a 64-CPU RS/6000 SP. This
// container has one core, so the repository reproduces Figures 3 and 4 by
// replaying *real* search traces (per-round task lists with measured CPU
// costs — see SearchTrace) through a discrete-event model of the runtime:
// a serial foreman that pays a per-message handling cost, links with
// latency and bandwidth, and P-3 workers (the other three processors run
// master, foreman and monitor, exactly the paper's accounting — which is
// why 4 processors are *slower* than the serial build). Rounds are
// barriers; the slack between the first and last completion of a round is
// the paper's "loose synchronization".
#pragma once

#include <vector>

#include "search/trace.hpp"

namespace fdml::obs {
struct TraceLog;
}

namespace fdml {

struct SimClusterConfig {
  /// Total processors. 1 simulates the serial program (no runtime
  /// overhead); >= 4 runs the paper's layout with processors-3 workers.
  int processors = 4;
  /// Foreman CPU cost to send or receive one message (MPI-era per-message
  /// handling is tens of microseconds).
  double message_overhead_seconds = 5e-5;
  /// One-way network latency (SP Switch2-class interconnect).
  double latency_seconds = 5e-5;
  /// Link bandwidth (bytes/second) for task and result payloads.
  double bandwidth_bytes_per_second = 100e6;
  /// Optional trace sink: the simulator fills it with the same span/flow
  /// vocabulary the live runtime emits (foreman "round" spans, worker
  /// "task" spans, dispatch->execute->accept flow arcs, queue depth), with
  /// *virtual* timestamps — so trace_report and chrome://tracing work
  /// identically on replays and live runs.
  obs::TraceLog* trace = nullptr;

  int workers() const { return processors <= 1 ? 1 : processors - 3; }
};

struct SimResult {
  double wall_seconds = 0.0;
  /// Sum of worker task CPU (invariant across processor counts).
  double busy_seconds = 0.0;
  /// busy / (wall * workers): how well the schedule fills the machine.
  double worker_utilization = 0.0;
  /// Mean over rounds of (last completion - first completion).
  double mean_round_slack_seconds = 0.0;
  std::vector<double> round_durations;
};

/// Replays a trace on the configured machine. processors=1 reduces to the
/// serial sum of all task and master costs.
SimResult simulate_trace(const SearchTrace& trace, const SimClusterConfig& config);

/// Replays a trace with *speculative dispatch* — the feature of Ceron's
/// parallel DNAml the paper plans to study: because a rearrangement round
/// usually fails to improve the tree, the tasks of the following round are
/// usually already known, so idle workers at a rearrangement barrier start
/// on them early. If the round does improve (detected from the trace: an
/// improving round is followed by another rearrangement round at the same
/// taxon count), the speculative work is discarded and the next round runs
/// from scratch. Fills `speculated_rounds` / `wasted_speculations`.
struct SpeculativeResult {
  SimResult sim;
  std::size_t speculated_rounds = 0;
  std::size_t wasted_speculations = 0;
};
SpeculativeResult simulate_trace_speculative(const SearchTrace& trace,
                                             const SimClusterConfig& config);

/// Speedup of `config` relative to the serial (1-processor) replay of the
/// same trace — the paper's Figure 4 metric, "presented in the most
/// conservative fashion possible, using the serial version as the basis".
double simulated_speedup(const SearchTrace& trace, const SimClusterConfig& config);

/// Machine config for an RS/6000-SP-era cluster: CPU-bound costs (message
/// handling) scale with the same slowdown applied to the trace's task
/// costs; wire latency and bandwidth stay physical.
SimClusterConfig sp_era_config(int processors, double cpu_slowdown);

}  // namespace fdml
