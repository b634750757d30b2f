#include "parallel/cluster.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "parallel/monitor.hpp"
#include "parallel/protocol.hpp"

namespace fdml {

InProcessCluster::InProcessCluster(const PatternAlignment& data,
                                   SubstModel model, RateModel rates,
                                   ClusterOptions options)
    : options_(std::move(options)),
      fabric_(kFirstWorkerRank + options_.num_workers) {
  if (options_.num_workers < 1) {
    throw std::invalid_argument("cluster: need at least one worker");
  }
  if (options_.chaos.has_value()) {
    chaos_totals_ = std::make_shared<ChaosTotals>();
  }
  // The calling thread plays the master role.
  obs::set_thread_name("master");

  // Every role shares the cluster's registry unless the caller supplied
  // its own; role stats stay per-incarnation deltas over it.
  if (options_.master.metrics == nullptr) options_.master.metrics = &metrics_;
  if (options_.foreman.metrics == nullptr) options_.foreman.metrics = &metrics_;

  master_endpoint_ = fabric_.endpoint(kMasterRank);
  master_ = std::make_unique<ParallelMaster>(
      *master_endpoint_, options_.num_workers, data, model, rates,
      options_.master);
  master_->set_telemetry(&telemetry_);

  // Foreman thread.
  threads_.emplace_back([this] {
    auto endpoint = fabric_.endpoint(kForemanRank);
    foreman_stats_ = foreman_main(*endpoint, options_.foreman);
  });
  // Monitor thread.
  threads_.emplace_back([this] {
    auto endpoint = fabric_.endpoint(kMonitorRank);
    monitor_main(*endpoint);
  });
  // Worker threads.
  for (int w = 0; w < options_.num_workers; ++w) {
    const int rank = kFirstWorkerRank + w;
    threads_.emplace_back([this, rank, &data, model, rates] {
      std::unique_ptr<Transport> endpoint = fabric_.endpoint(rank);
      if (options_.chaos.has_value()) {
        endpoint = std::make_unique<ChaosTransport>(
            std::move(endpoint), *options_.chaos, chaos_totals_);
      }
      if (options_.wrap_worker_transport) {
        endpoint = options_.wrap_worker_transport(rank, std::move(endpoint));
      }
      worker_main(*endpoint, data, model, rates);
    });
  }
}

TaskRunner& InProcessCluster::runner() { return *master_; }

InProcessCluster::~InProcessCluster() { shutdown(); }

void InProcessCluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  master_endpoint_->send(kForemanRank, MessageTag::kShutdown, {});
  for (auto& thread : threads_) thread.join();
  master_->pump();  // the workers' final telemetry frames
  fabric_.close();
}

std::string render_worker_totals(const obs::TelemetryAggregator& telemetry) {
  std::string out;
  for (const obs::RankTelemetry& row : telemetry.ranks()) {
    if (row.rank < kFirstWorkerRank) continue;
    char line[128];
    std::snprintf(line, sizeof line,
                  "  worker %d: %llu tasks, %llu CLV computations\n", row.rank,
                  static_cast<unsigned long long>(
                      row.counter("worker.tasks_evaluated")),
                  static_cast<unsigned long long>(
                      row.counter("kernel.clv_computations")));
    out += line;
  }
  return out;
}

}  // namespace fdml
