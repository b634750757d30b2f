// Wire messages for the parallel runtime.
//
// The paper sequesters every message-passing call behind one interface per
// backend (comm_serial.c / comm_pvm.c / comm_mpi.c) so the program modules
// never see a particular library. This module is that seam: Transport is
// the interface, and backends (in-process threads here; MPI/PVM would slot
// in the same way) implement it.
#pragma once

#include <cstdint>
#include <vector>

namespace fdml {

enum class MessageTag : std::uint8_t {
  kHello = 1,        ///< worker -> foreman: ready for work
  kTask = 2,         ///< foreman -> worker: evaluate this tree
  kResult = 3,       ///< worker -> foreman: optimized tree + lnL
  kRound = 4,        ///< master -> foreman: a round of tasks
  kRoundDone = 5,    ///< foreman -> master: best tree + per-task stats
  kShutdown = 7,     ///< master -> everyone: terminate cleanly
  kProgress = 8,     ///< foreman -> master: round liveness heartbeat
  kRoundFailed = 9,  ///< foreman -> master: round cannot complete
  kNack = 10,        ///< worker -> foreman: received task was malformed
  kPing = 11,        ///< foreman -> worker: announce yourself (a revived
                     ///< foreman rebuilding its worker list after a crash)
  // Service-plane tags (src/service/): client <-> fdmld job traffic. These
  // ride the same wire framing but never cross the foreman/worker fabric.
  kSubmit = 13,       ///< client -> service: submit a search job
  kJobAccepted = 14,  ///< service -> client: admitted (payload: job id)
  kJobRejected = 15,  ///< service -> client: shed (payload: reason)
  kJobDone = 16,      ///< service -> client: outcome (tree, lnL, status)
  // Telemetry plane: per-rank metric deltas ride the fabric to rank 0 (the
  // run's only accounting channel); scrape clients pull Prometheus text
  // over the service wire.
  kTelemetry = 19,    ///< worker/foreman -> master: MetricsRegistry delta
                      ///< frame (obs/telemetry.hpp codec), periodic and a
                      ///< final one from each worker on shutdown
  kMetricsQuery = 20, ///< client -> service: request Prometheus exposition
  kMetricsReply = 21, ///< service -> client: Prometheus text format
};

struct Message {
  int source = -1;
  MessageTag tag = MessageTag::kHello;
  std::vector<std::uint8_t> payload;
};

}  // namespace fdml
