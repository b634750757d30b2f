#include "parallel/socket_cluster.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/monitor.hpp"
#include "parallel/protocol.hpp"
#include "util/log.hpp"

namespace fdml {

SocketRoleResult run_socket_role(const PatternAlignment& data,
                                 const SubstModel& model, const RateModel& rates,
                                 const SocketRunOptions& options) {
  const int rank = options.socket.rank;
  if (rank < 1 || rank >= options.socket.size) {
    throw std::invalid_argument("run_socket_role: rank must be 1..size-1");
  }
  if (options.socket.size < kFirstWorkerRank + 1) {
    throw std::invalid_argument(
        "run_socket_role: fabric needs master+foreman+monitor+>=1 worker");
  }
  SocketFabric fabric(options.socket);
  std::unique_ptr<Transport> endpoint = fabric.endpoint();
  SocketRoleResult result;
  result.rank = rank;
  if (rank == kForemanRank) {
    ForemanOptions foreman = options.foreman;
    foreman.telemetry_interval = options.telemetry_interval;
    result.foreman = foreman_main(*endpoint, foreman);
  } else if (rank == kMonitorRank) {
    monitor_main(*endpoint);
  } else {
    WorkerRunOptions worker;
    worker.telemetry_interval = options.telemetry_interval;
    result.worker = worker_main(*endpoint, data, model, rates, worker);
  }
  // The role loop saw shutdown (or the hub died). Closing flushes anything
  // still queued — a worker's final telemetry frame, the foreman's final
  // round.
  fabric.close();
  return result;
}

SocketCluster::SocketCluster(const PatternAlignment& data, SubstModel model,
                             RateModel rates, SocketRunOptions options)
    : options_(std::move(options)),
      fabric_([&] {
        SocketOptions socket = options_.socket;
        socket.rank = kMasterRank;
        return socket;
      }()),
      telemetry_([&] {
        obs::TelemetryAggregatorOptions agg;
        if (options_.telemetry_interval.count() > 0) {
          // Two missed frames = stale; the floor absorbs scheduling jitter
          // at very short test intervals.
          agg.stale_after = std::max(options_.telemetry_interval * 2,
                                     std::chrono::milliseconds(200));
        }
        return agg;
      }()) {
  if (options_.socket.size < kFirstWorkerRank + 1) {
    throw std::invalid_argument(
        "SocketCluster: fabric needs master+foreman+monitor+>=1 worker");
  }
  obs::set_thread_name("master");
  endpoint_ = fabric_.endpoint();
  master_ = std::make_unique<ParallelMaster>(*endpoint_, num_workers(), data,
                                             std::move(model), std::move(rates),
                                             options_.master);
  // Telemetry frames arriving on the hub (mid-round or via pump) land in
  // the aggregator.
  master_->set_telemetry(&telemetry_);
}

SocketCluster::~SocketCluster() { shutdown(); }

int SocketCluster::num_workers() const {
  return options_.socket.size - kFirstWorkerRank;
}

bool SocketCluster::wait_ready(std::chrono::milliseconds timeout) {
  return fabric_.wait_ready(timeout);
}

void SocketCluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  fabric_.expect_departures();  // disconnects from here on are orderly
  endpoint_->send(kForemanRank, MessageTag::kShutdown, {});
  // The foreman fans the shutdown out to workers and monitor *through this
  // hub*, so keep routing until the peers have actually left (a dead
  // foreman cannot forward it; the grace period bounds that case and the
  // peers then exit on the hub's EOF instead).
  if (!fabric_.wait_peers_gone(std::chrono::milliseconds(5000))) {
    FDML_WARN("master") << "socket fabric: peers still connected after "
                           "shutdown grace; closing anyway";
  }
  master_->pump();  // the workers' final telemetry frames
  fabric_.close();
}

}  // namespace fdml
