// The fdmld service endpoint: a TCP listener speaking the repo's length-
// framed wire protocol (comm/wire.hpp) with the service-plane tags.
//
// One connection, one request — the protocol a shell script can drive:
//
//   submit:  client kSubmit(sealed JobSpec)
//            server kJobAccepted(u64 job id) | kJobRejected(u8 reason)
//            ... job runs ...
//            server kJobDone(sealed JobOutcome), connection closes
//   scrape:  client kMetricsQuery()
//            server kMetricsReply(sealed Prometheus text), closes
//
// Malformed traffic (bad framing, a payload open_sealed rejects, an unknown
// tag) is a counted reject/close, never a crash: the service outlives its
// clients.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler.hpp"

namespace fdml {

/// The server listens on every interface, as the socket fabric's hub does.
struct ServiceServerOptions {
  /// 0 = ephemeral; read back with port().
  std::uint16_t port = 0;
  /// Cluster telemetry aggregate rendered into the kMetricsQuery
  /// Prometheus exposition (per-rank kernel counters, staleness). Null =
  /// hub-process metrics and job progress only. Must outlive the server.
  const obs::TelemetryAggregator* telemetry = nullptr;
};

/// A client call gave up waiting on the server (connect or read deadline).
/// Distinct from protocol/connection errors so callers can tell "the
/// service is wedged" (retry later, alert) from "the service answered
/// garbage" (a bug).
class ServiceTimeoutError : public std::runtime_error {
 public:
  ServiceTimeoutError(const std::string& operation,
                      std::chrono::milliseconds timeout)
      : std::runtime_error("service: " + operation + " timed out after " +
                           std::to_string(timeout.count()) + " ms"),
        operation_(operation),
        timeout_(timeout) {}

  const std::string& operation() const { return operation_; }
  std::chrono::milliseconds timeout() const { return timeout_; }

 private:
  std::string operation_;
  std::chrono::milliseconds timeout_;
};

class ServiceServer {
 public:
  /// Binds and starts serving immediately. `scheduler` must outlive the
  /// server; `registry` is the hub process's rank-0 series in the scrape.
  ServiceServer(JobScheduler& scheduler, obs::MetricsRegistry& registry,
                ServiceServerOptions options);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Stops accepting and joins every connection handler. Handlers blocked
  /// on an in-flight job return once the scheduler resolves it (drain the
  /// scheduler first, or this can wait a full job). Idempotent.
  void close();

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Prometheus text: hub-process registry (rank 0) + cluster telemetry
  /// aggregate + per-job progress series.
  std::string prometheus_exposition() const;

  JobScheduler& scheduler_;
  obs::MetricsRegistry& registry_;
  ServiceServerOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> closing_{false};
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;
};

/// What a blocking client call observed.
struct ServiceReply {
  /// Set when the submission was shed; `outcome` is then empty.
  std::optional<RejectReason> rejected;
  std::uint64_t job_id = 0;
  /// Set when the job was admitted and reached a terminal status.
  std::optional<JobOutcome> outcome;
};

/// Submits a job and blocks until it is rejected or terminal. Throws
/// ServiceTimeoutError when the server accepts the connection but never
/// answers within `timeout` (which bounds the whole exchange, including the
/// search itself), std::runtime_error on connect/protocol failure.
ServiceReply service_submit(const std::string& host, std::uint16_t port,
                            const JobSpec& spec,
                            std::chrono::milliseconds timeout);

/// Fetches the Prometheus text exposition (kMetricsQuery). Throws
/// ServiceTimeoutError on a wedged server.
std::string service_scrape(const std::string& host, std::uint16_t port,
                           std::chrono::milliseconds timeout);

}  // namespace fdml
