// Multi-process deployment of the paper's process layout: each OS process
// owns exactly one rank of a SocketFabric and runs that rank's role loop.
// The protocol, codecs and health machine are byte-for-byte the ones the
// in-process backends run — only the Transport underneath changed, which is
// the paper's whole argument for the comm seam.
//
//   rank 0  master   (SocketCluster: fabric hub + ParallelMaster + search)
//   rank 1  foreman  (run_socket_role -> foreman_main)
//   rank 2  monitor  (run_socket_role -> monitor_main)
//   rank 3+ workers  (run_socket_role -> worker_main)
//
// scripts/launch_cluster.sh stands up all ranks of a run and is what the
// multiprocess CI job drives.
#pragma once

#include <chrono>
#include <memory>
#include <optional>

#include "comm/socket.hpp"
#include "obs/telemetry.hpp"
#include "parallel/foreman.hpp"
#include "parallel/master.hpp"
#include "parallel/worker.hpp"
#include "search/runner.hpp"

namespace fdml {

struct SocketRunOptions {
  SocketOptions socket;
  ForemanOptions foreman;
  MasterOptions master;
  /// Telemetry plane period for this rank's emitter (foreman and workers);
  /// zero disables. The hub's aggregator marks a rank stale after
  /// ~2 periods of silence.
  std::chrono::milliseconds telemetry_interval{0};
};

/// What a non-master rank's role loop produced (only the member matching
/// the rank is meaningful; the app prints it as the process's exit summary;
/// the monitor rank produces nothing).
struct SocketRoleResult {
  int rank = -1;
  std::optional<ForemanStats> foreman;
  std::optional<WorkerStats> worker;
};

/// Runs the role loop for options.socket.rank (>= 1) over its own
/// SocketFabric, blocking until the fabric shuts down. Throws on rendezvous
/// failure.
SocketRoleResult run_socket_role(const PatternAlignment& data,
                                 const SubstModel& model, const RateModel& rates,
                                 const SocketRunOptions& options);

/// The master process's side: fabric hub + ParallelMaster, exposed as a
/// TaskRunner so StepwiseSearch runs unchanged over TCP. Mirrors
/// InProcessCluster's shape minus the role threads (those are other
/// processes now); as there, the master's serial fallback absorbs a dead
/// fabric.
class SocketCluster {
 public:
  /// `data` must outlive the cluster. Binds the hub port; peers may
  /// rendezvous from then on.
  SocketCluster(const PatternAlignment& data, SubstModel model, RateModel rates,
                SocketRunOptions options);
  ~SocketCluster();

  SocketCluster(const SocketCluster&) = delete;
  SocketCluster& operator=(const SocketCluster&) = delete;

  TaskRunner& runner() { return *master_; }
  int num_workers() const;

  /// Blocks until every rank has joined the fabric.
  bool wait_ready(std::chrono::milliseconds timeout);

  MasterStats master_stats() const { return master_->stats(); }
  SocketFabricStats fabric_stats() const { return fabric_.stats(); }

  /// The hub-side aggregate of every rank's kTelemetry frames: periodic
  /// ones when telemetry_interval is set, and each worker's final frame
  /// once shutdown() has returned.
  obs::TelemetryAggregator& telemetry() { return telemetry_; }
  const obs::TelemetryAggregator& telemetry() const { return telemetry_; }

  /// Drains queued fabric messages (telemetry frames) while no round is in
  /// flight; the serve loop calls this on its tick. Returns messages drained.
  std::size_t pump_telemetry() { return master_->pump(); }

  /// Broadcasts shutdown through the foreman, keeps routing until the peer
  /// processes have drained off the fabric, then closes it. Idempotent; the
  /// destructor calls it.
  void shutdown();

 private:
  SocketRunOptions options_;
  SocketFabric fabric_;
  std::unique_ptr<Transport> endpoint_;
  std::unique_ptr<ParallelMaster> master_;
  obs::TelemetryAggregator telemetry_;
  bool shut_down_ = false;
};

}  // namespace fdml
