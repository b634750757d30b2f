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
  if (options_.chaos.has_value() || options_.chaos_foreman.has_value()) {
    chaos_totals_ = std::make_shared<ChaosTotals>();
  }
  // The calling thread plays the master role.
  obs::set_thread_name("master");

  // Every role shares the cluster's registry unless the caller supplied
  // its own; role stats stay per-incarnation deltas over it.
  if (options_.master.metrics == nullptr) options_.master.metrics = &metrics_;
  if (options_.foreman.metrics == nullptr) options_.foreman.metrics = &metrics_;

  master_endpoint_ = fabric_.endpoint(kMasterRank);
  master_ = std::make_unique<ParallelMaster>(*master_endpoint_,
                                             options_.num_workers,
                                             options_.master);
  master_->set_telemetry(&telemetry_);
  // Degraded mode: when the parallel fabric cannot finish a round (all
  // workers dead, foreman wedged), evaluate it in-process — same evaluator
  // the workers run, so the search result is unchanged.
  master_->set_fallback([this, &data, model, rates](
                            const std::vector<TreeTask>& tasks) {
    if (!serial_fallback_) {
      serial_fallback_ = std::make_unique<SerialTaskRunner>(data, model, rates);
    }
    return serial_fallback_->run_round(tasks);
  });

  // Process-level crash recovery: between round retries, check whether the
  // foreman died and stand up a replacement (see revive_foreman).
  master_->set_reviver([this] { return revive_foreman(); });

  // Foreman thread.
  spawn_foreman(options_.foreman, /*with_chaos=*/true);
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

void InProcessCluster::spawn_foreman(ForemanOptions options, bool with_chaos) {
  foreman_exited_.store(false, std::memory_order_release);
  foreman_crashed_.store(false, std::memory_order_release);
  foreman_thread_ = std::thread([this, options, with_chaos] {
    // endpoint() can be called repeatedly for the same rank: each call
    // attaches a fresh Transport to the rank's persistent mailbox, which is
    // exactly what lets a revived foreman pick up traffic queued while its
    // predecessor was dead.
    std::unique_ptr<Transport> endpoint = fabric_.endpoint(kForemanRank);
    ChaosTransport* chaos = nullptr;
    if (with_chaos && options_.chaos_foreman.has_value()) {
      auto wrapped = std::make_unique<ChaosTransport>(
          std::move(endpoint), *options_.chaos_foreman, chaos_totals_);
      chaos = wrapped.get();
      endpoint = std::move(wrapped);
    }
    foreman_stats_ = foreman_main(*endpoint, options);
    if (chaos != nullptr && chaos->crashed()) {
      foreman_crashed_.store(true, std::memory_order_release);
    }
    foreman_exited_.store(true, std::memory_order_release);
  });
}

bool InProcessCluster::revive_foreman() {
  if (!foreman_exited_.load(std::memory_order_acquire)) return false;
  foreman_thread_.join();
  ++foreman_revivals_;
  ForemanOptions revived = options_.foreman;
  // The replacement replays whatever the dead incarnation durably logged
  // and pings the workers to rebuild its (empty) worker list. It runs
  // without the chaos wrapper: the injected crash already happened.
  revived.revived = true;
  spawn_foreman(std::move(revived), /*with_chaos=*/false);
  return true;
}

void InProcessCluster::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  master_endpoint_->send(kForemanRank, MessageTag::kShutdown, {});
  if (foreman_thread_.joinable()) foreman_thread_.join();
  if (foreman_crashed_.load(std::memory_order_acquire)) {
    // A crashed foreman never forwarded the shutdown; without this the
    // worker and monitor threads would block in recv forever.
    for (int w = 0; w < options_.num_workers; ++w) {
      master_endpoint_->send(kFirstWorkerRank + w, MessageTag::kShutdown, {});
    }
    master_endpoint_->send(kMonitorRank, MessageTag::kShutdown, {});
  }
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
