// InProcessCluster: stands up the paper's full process layout — master
// (the calling thread), foreman, monitor and N workers — over the
// in-process thread fabric, and exposes the master side as a TaskRunner so
// StepwiseSearch runs unchanged on top of it. This is the substitution for
// the paper's MPI runs on the RS/6000 SP: the identical protocol executes
// for real, with threads standing in for hosts (see DESIGN.md).
//
// The cluster can also run under fault injection: set
// ClusterOptions::chaos and every worker endpoint is wrapped in a
// ChaosTransport driven by that plan (each rank sees its own reproducible
// fault lane). When the fabric degrades past recovery the master falls
// back to its own in-process SerialTaskRunner, so a chaos run always
// produces an answer.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "comm/chaos.hpp"
#include "comm/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "parallel/foreman.hpp"
#include "parallel/master.hpp"
#include "parallel/worker.hpp"
#include "search/runner.hpp"

namespace fdml {

struct ClusterOptions {
  int num_workers = 1;
  ForemanOptions foreman;
  MasterOptions master;
  /// Fault-inject every worker's transport with this plan (the plan seed
  /// plus the worker's rank keys its independent fault schedule).
  std::optional<FaultPlan> chaos;
  /// Optional per-worker transport decorator (custom fault injection in
  /// tests): given the worker rank and its endpoint — already chaos-wrapped
  /// when `chaos` is set — return the endpoint the worker should use.
  std::function<std::unique_ptr<Transport>(int, std::unique_ptr<Transport>)>
      wrap_worker_transport;
};

class InProcessCluster {
 public:
  /// `data` must outlive the cluster.
  InProcessCluster(const PatternAlignment& data, SubstModel model,
                   RateModel rates, ClusterOptions options);
  ~InProcessCluster();

  InProcessCluster(const InProcessCluster&) = delete;
  InProcessCluster& operator=(const InProcessCluster&) = delete;

  /// Master-side runner; rounds dispatched here flow master -> foreman ->
  /// workers and back (or through the serial fallback when the fabric is
  /// beyond recovery).
  TaskRunner& runner();

  int num_workers() const { return options_.num_workers; }

  /// Foreman counters; valid after shutdown().
  const ForemanStats& foreman_stats() const { return foreman_stats_; }
  /// Master-side counters (watchdog trips, failed rounds, fallbacks).
  MasterStats master_stats() const { return master_->stats(); }
  /// Aggregate fault-injection counters; non-null iff options.chaos is set.
  std::shared_ptr<const ChaosTotals> chaos_totals() const { return chaos_totals_; }

  std::uint64_t fabric_messages() const { return fabric_.messages_sent(); }
  std::uint64_t fabric_bytes() const { return fabric_.bytes_sent(); }

  /// The registry the master's and foreman's counters live in. Role stats
  /// structs above are delta views over it; this is the cumulative
  /// whole-run truth.
  obs::MetricsRegistry& metrics() { return metrics_; }
  obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

  /// Per-worker totals (kernel.*, worker.*) as their kTelemetry frames
  /// delivered them to the master: one row per worker rank once shutdown()
  /// has returned, the same view SocketCluster::telemetry() gives.
  const obs::TelemetryAggregator& telemetry() const { return telemetry_; }

  /// Sends shutdown and joins every role thread (idempotent; the
  /// destructor calls it).
  void shutdown();

 private:
  ClusterOptions options_;
  /// Owned registry shared by every role (declared before master_, which
  /// holds counter references into it).
  obs::MetricsRegistry metrics_;
  /// Declared before master_, which holds a pointer to it.
  obs::TelemetryAggregator telemetry_;
  ThreadFabric fabric_;
  ForemanStats foreman_stats_;
  std::shared_ptr<ChaosTotals> chaos_totals_;
  std::unique_ptr<Transport> master_endpoint_;
  std::unique_ptr<ParallelMaster> master_;
  std::vector<std::thread> threads_;
  bool shut_down_ = false;
};

/// One line per worker rank (tasks evaluated, CLV computations) from the
/// totals its telemetry frames delivered; works for either cluster backend.
std::string render_worker_totals(const obs::TelemetryAggregator& telemetry);

}  // namespace fdml
