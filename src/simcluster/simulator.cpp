#include "simcluster/simulator.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace fdml {

namespace {

// Virtual tids mirror the live rank layout (comm/transport.hpp) so a
// simulated trace and a live trace read identically in the viewer and in
// trace_report: 0 = master, 1 = foreman, 2 = monitor, 3.. = workers.
constexpr int kSimMasterTid = 0;
constexpr int kSimForemanTid = 1;
constexpr int kSimFirstWorkerTid = 3;

constexpr double kSecondsToNs = 1e9;

void sim_trace_threads(obs::TraceLog* trace, int workers) {
  if (trace == nullptr) return;
  trace->set_thread(kSimMasterTid, "master");
  trace->set_thread(kSimForemanTid, "foreman");
  for (int w = 0; w < workers; ++w) {
    const int tid = kSimFirstWorkerTid + w;
    trace->set_thread(tid, "worker-" + std::to_string(tid));
  }
}

struct InFlight {
  double arrival;  ///< when the result reaches the foreman
  int worker;
  bool speculative;
  std::size_t task = 0;  ///< index within its round (flow-arc binding)
  bool operator>(const InFlight& other) const { return arrival > other.arrival; }
};

/// Machine state threaded through rounds.
struct MachineState {
  double foreman_free = 0.0;
  std::vector<double> worker_ready;
};

struct RoundOutcomeSim {
  double first_completion = -1.0;
  double last_completion = 0.0;   ///< foreman time of the round's last result
  double speculative_done = 0.0;  ///< completion time of speculative tasks
  std::size_t speculative_completed = 0;
};

/// Schedules one round (optionally with a speculative tail of next-round
/// tasks) through the foreman/worker pipeline. Task and byte lists for the
/// main round come first; `speculative` tasks are dispatched only to
/// workers that would otherwise idle after the main queue drains.
RoundOutcomeSim run_round_sim(const RoundTrace& round,
                              const RoundTrace* speculative,
                              const SimClusterConfig& config,
                              MachineState& machine,
                              std::uint64_t round_id = 0,
                              obs::TraceLog* trace = nullptr) {
  const double overhead = config.message_overhead_seconds;
  const double latency = config.latency_seconds;
  const double inv_bandwidth = 1.0 / config.bandwidth_bytes_per_second;

  auto transfer = [&](const RoundTrace& source, std::size_t task) {
    const double bytes = task < source.task_bytes.size()
                             ? static_cast<double>(source.task_bytes[task]) * 0.5
                             : 256.0;
    return bytes * inv_bandwidth;
  };

  const std::size_t n = round.task_cpu_seconds.size();
  const std::size_t n_spec =
      speculative != nullptr ? speculative->task_cpu_seconds.size() : 0;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> in_flight;

  std::size_t next = 0;       // next main task
  std::size_t next_spec = 0;  // next speculative task
  auto dispatch_to = [&](int worker) {
    const bool spec = next >= n;
    if (spec && next_spec >= n_spec) return false;
    const RoundTrace& source = spec ? *speculative : round;
    const std::size_t task = spec ? next_spec++ : next++;
    machine.foreman_free =
        std::max(machine.foreman_free,
                 machine.worker_ready[static_cast<std::size_t>(worker)]) +
        overhead;
    const double start =
        machine.foreman_free + latency + transfer(source, task);
    const double done = start + source.task_cpu_seconds[task];
    in_flight.push(
        {done + latency + transfer(source, task), worker, spec, task});
    if (trace != nullptr && !spec) {
      const std::uint64_t flow = obs::task_flow_id(round_id, task);
      trace->add(kSimForemanTid, obs::Phase::kFlowBegin,
                 machine.foreman_free * kSecondsToNs, "flow", "task", flow);
      auto& depth =
          trace->add(kSimForemanTid, obs::Phase::kCounter,
                     machine.foreman_free * kSecondsToNs, "counter",
                     "queue_depth");
      depth.arg0_name = "value";
      depth.arg0 = static_cast<std::int64_t>(n - next);
      const int tid = kSimFirstWorkerTid + worker;
      auto& begin = trace->add(tid, obs::Phase::kBegin, start * kSecondsToNs,
                               "worker", "task");
      begin.arg0_name = "task";
      begin.arg0 = static_cast<std::int64_t>(task);
      begin.arg1_name = "round";
      begin.arg1 = static_cast<std::int64_t>(round_id);
      trace->add(tid, obs::Phase::kFlowStep, start * kSecondsToNs, "flow",
                 "task", flow);
      trace->add(tid, obs::Phase::kEnd, done * kSecondsToNs, "worker", "task");
    }
    return true;
  };

  for (int w = 0; w < static_cast<int>(machine.worker_ready.size()); ++w) {
    dispatch_to(w);
  }

  RoundOutcomeSim outcome;
  while (!in_flight.empty()) {
    const InFlight flight = in_flight.top();
    in_flight.pop();
    machine.foreman_free = std::max(machine.foreman_free, flight.arrival) + overhead;
    machine.worker_ready[static_cast<std::size_t>(flight.worker)] = flight.arrival;
    if (trace != nullptr && !flight.speculative) {
      trace->add(kSimForemanTid, obs::Phase::kFlowEnd,
                 machine.foreman_free * kSecondsToNs, "flow", "task",
                 obs::task_flow_id(round_id, flight.task));
    }
    if (flight.speculative) {
      outcome.speculative_done =
          std::max(outcome.speculative_done, machine.foreman_free);
      ++outcome.speculative_completed;
    } else {
      if (outcome.first_completion < 0.0) {
        outcome.first_completion = machine.foreman_free;
      }
      outcome.last_completion =
          std::max(outcome.last_completion, machine.foreman_free);
    }
    dispatch_to(flight.worker);
  }
  return outcome;
}

void check_layout(const SimClusterConfig& config) {
  if (config.processors != 1 && config.processors < 4) {
    throw std::invalid_argument(
        "simulate_trace: the instrumented parallel layout needs >= 4 "
        "processors (master, foreman, monitor + workers); use 1 for serial");
  }
}

SimResult simulate_serial(const SearchTrace& trace, const SimClusterConfig& config) {
  SimResult result;
  result.busy_seconds = trace.total_task_seconds();
  if (config.trace != nullptr) {
    config.trace->set_thread(kSimMasterTid, "master");
  }
  double clock = 0.0;
  for (const RoundTrace& round : trace.rounds) {
    const double begin = clock;
    clock += round.master_seconds;
    for (double cpu : round.task_cpu_seconds) clock += cpu;
    if (config.trace != nullptr) {
      auto& b = config.trace->add(kSimMasterTid, obs::Phase::kBegin,
                                  begin * kSecondsToNs, "search",
                                  round_kind_name(round.kind));
      b.arg0_name = "tasks";
      b.arg0 = static_cast<std::int64_t>(round.task_cpu_seconds.size());
      config.trace->add(kSimMasterTid, obs::Phase::kEnd, clock * kSecondsToNs,
                        "search", round_kind_name(round.kind));
    }
    result.round_durations.push_back(clock - begin);
  }
  result.wall_seconds = clock;
  result.worker_utilization = clock > 0.0 ? result.busy_seconds / clock : 0.0;
  result.mean_round_slack_seconds = 0.0;
  return result;
}

/// True when `next` would re-run with a different tree if `current`
/// improved — i.e. speculation across this boundary is discarded on
/// improvement. Improvement is detectable from the trace: an improving
/// rearrangement round is followed by another rearrangement round at the
/// same taxon count.
bool round_improved(const SearchTrace& trace, std::size_t index) {
  if (index + 1 >= trace.rounds.size()) return false;
  const RoundTrace& current = trace.rounds[index];
  const RoundTrace& next = trace.rounds[index + 1];
  return current.kind == RoundKind::kRearrange &&
         next.kind == RoundKind::kRearrange &&
         next.taxa_in_tree == current.taxa_in_tree;
}

}  // namespace

SimResult simulate_trace(const SearchTrace& trace, const SimClusterConfig& config) {
  check_layout(config);
  if (config.processors == 1) return simulate_serial(trace, config);

  SimResult result;
  result.busy_seconds = trace.total_task_seconds();
  const int workers = config.workers();
  sim_trace_threads(config.trace, workers);

  double clock = 0.0;
  double total_slack = 0.0;
  std::size_t slack_rounds = 0;
  std::uint64_t round_id = 0;
  for (const RoundTrace& round : trace.rounds) {
    ++round_id;
    const double round_begin = clock;
    MachineState machine;
    machine.foreman_free = clock + round.master_seconds + config.latency_seconds;
    machine.worker_ready.assign(static_cast<std::size_t>(workers), round_begin);
    if (config.trace != nullptr) {
      // Master-side serial slice, then the foreman round span.
      auto& m = config.trace->add(kSimMasterTid, obs::Phase::kBegin,
                                  round_begin * kSecondsToNs, "search",
                                  round_kind_name(round.kind));
      m.arg0_name = "round";
      m.arg0 = static_cast<std::int64_t>(round_id);
      auto& b = config.trace->add(kSimForemanTid, obs::Phase::kBegin,
                                  machine.foreman_free * kSecondsToNs,
                                  "foreman", "round");
      b.arg0_name = "round";
      b.arg0 = static_cast<std::int64_t>(round_id);
      b.arg1_name = "tasks";
      b.arg1 = static_cast<std::int64_t>(round.task_cpu_seconds.size());
    }
    const RoundOutcomeSim outcome =
        run_round_sim(round, nullptr, config, machine, round_id, config.trace);
    if (outcome.first_completion >= 0.0) {
      total_slack += outcome.last_completion - outcome.first_completion;
      ++slack_rounds;
    }
    clock = outcome.last_completion + config.latency_seconds;
    if (config.trace != nullptr) {
      auto& e = config.trace->add(kSimForemanTid, obs::Phase::kEnd,
                                  outcome.last_completion * kSecondsToNs,
                                  "foreman", "round");
      e.arg0_name = "completed";
      e.arg0 = static_cast<std::int64_t>(round.task_cpu_seconds.size());
      config.trace->add(kSimMasterTid, obs::Phase::kEnd, clock * kSecondsToNs,
                        "search", round_kind_name(round.kind));
    }
    result.round_durations.push_back(clock - round_begin);
  }

  if (config.trace != nullptr) config.trace->sort_events();

  result.wall_seconds = clock;
  result.worker_utilization =
      clock > 0.0 ? result.busy_seconds / (clock * workers) : 0.0;
  result.mean_round_slack_seconds =
      slack_rounds > 0 ? total_slack / static_cast<double>(slack_rounds) : 0.0;
  return result;
}

SpeculativeResult simulate_trace_speculative(const SearchTrace& trace,
                                             const SimClusterConfig& config) {
  check_layout(config);
  SpeculativeResult out;
  if (config.processors == 1) {
    out.sim = simulate_serial(trace, config);
    return out;
  }
  out.sim.busy_seconds = trace.total_task_seconds();
  const int workers = config.workers();

  double clock = 0.0;
  std::size_t index = 0;
  while (index < trace.rounds.size()) {
    const RoundTrace& round = trace.rounds[index];
    const bool can_speculate = round.kind == RoundKind::kRearrange &&
                               index + 1 < trace.rounds.size();
    const RoundTrace* next_round =
        can_speculate ? &trace.rounds[index + 1] : nullptr;

    const double round_begin = clock;
    MachineState machine;
    machine.foreman_free = clock + round.master_seconds + config.latency_seconds;
    machine.worker_ready.assign(static_cast<std::size_t>(workers), round_begin);
    const RoundOutcomeSim outcome =
        run_round_sim(round, next_round, config, machine);

    if (!can_speculate) {
      clock = outcome.last_completion + config.latency_seconds;
      out.sim.round_durations.push_back(clock - round_begin);
      ++index;
      continue;
    }
    ++out.speculated_rounds;
    if (round_improved(trace, index)) {
      // The tree changed: discard speculative work; next round reruns.
      ++out.wasted_speculations;
      clock = outcome.last_completion + config.latency_seconds;
      out.sim.round_durations.push_back(clock - round_begin);
      ++index;
    } else if (outcome.speculative_completed ==
               next_round->task_cpu_seconds.size()) {
      // Entire next round rode along; both barriers close together.
      clock = std::max(outcome.last_completion, outcome.speculative_done) +
              config.latency_seconds;
      out.sim.round_durations.push_back(clock - round_begin);
      index += 2;
    } else {
      // Partial speculation is not modeled (workers would need result
      // caching); treat as no speculation for this boundary.
      clock = outcome.last_completion + config.latency_seconds;
      out.sim.round_durations.push_back(clock - round_begin);
      ++index;
    }
  }

  out.sim.wall_seconds = clock;
  out.sim.worker_utilization =
      clock > 0.0 ? out.sim.busy_seconds / (clock * workers) : 0.0;
  return out;
}

SimClusterConfig sp_era_config(int processors, double cpu_slowdown) {
  SimClusterConfig config;
  config.processors = processors;
  config.message_overhead_seconds *= cpu_slowdown;
  config.latency_seconds = 2e-5;               // SP Switch2 class
  config.bandwidth_bytes_per_second = 150e6;   // ~GB/s-class link of the era
  return config;
}

double simulated_speedup(const SearchTrace& trace, const SimClusterConfig& config) {
  SimClusterConfig serial = config;
  serial.processors = 1;
  const double serial_time = simulate_trace(trace, serial).wall_seconds;
  const double parallel_time = simulate_trace(trace, config).wall_seconds;
  return parallel_time > 0.0 ? serial_time / parallel_time : 0.0;
}

}  // namespace fdml
