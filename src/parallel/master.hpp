// The master side of the parallel protocol: packs rounds for the foreman
// and waits for the best tree to come back.
//
// Hardened beyond the happy path: a round watchdog (dated by the foreman's
// kProgress beats) turns "the fabric silently wedged" into a retry or
// a graceful degradation to in-process evaluation through the master's own
// serial fallback, so a round always ends with an answer (or with the
// evaluator's own error, as in a serial run); unexpected traffic is warned
// about and counted instead of silently discarded.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "search/runner.hpp"

namespace fdml {

struct MasterOptions {
  /// Watchdog: if the round has accepted no result for this long, by the
  /// master's own count from the send or by the foreman's beats, and has
  /// neither completed nor failed, it is declared wedged. The budget rides
  /// in the round message; the foreman beats every quarter of it.
  std::chrono::milliseconds watchdog_timeout{120000};
  /// Supervision: how many times a failed/wedged round is resent under a
  /// fresh round id before it degrades to the serial fallback. 0 = degrade
  /// immediately, the pre-supervisor behavior.
  /// Retry n waits 100 ms * 2^(n-1), capped at 5 s.
  int max_round_retries = 0;
  /// Metrics registry the master's counters live in; null = the process
  /// registry. MasterStats is a delta view over these counters (same
  /// pattern as ForemanStats).
  obs::MetricsRegistry* metrics = nullptr;
};

struct MasterStats {
  std::uint64_t rounds = 0;
  /// kProgress beats consumed for the round in flight. A fault-free round
  /// shorter than a quarter of the watchdog budget sends none.
  std::uint64_t progress_messages = 0;
  /// Messages whose tag the master does not understand (warned, not dropped
  /// silently).
  std::uint64_t unexpected_tags = 0;
  /// Round-scoped messages for a round other than the one in flight.
  std::uint64_t stale_messages = 0;
  /// Payloads that failed the integrity check or threw during decoding.
  std::uint64_t corrupt_messages = 0;
  /// Rounds declared wedged by the watchdog.
  std::uint64_t watchdog_trips = 0;
  /// kRoundFailed reports received from the foreman.
  std::uint64_t rounds_failed = 0;
  /// Rounds evaluated through the in-process fallback runner.
  std::uint64_t serial_fallbacks = 0;
  /// Round attempts restarted by the supervisor.
  std::uint64_t round_retries = 0;
  /// Rounds that completed on a retry after a watchdog trip on an earlier
  /// attempt: the fabric answered again, so later rounds leave the
  /// degraded (serial-fallback) path.
  std::uint64_t fabric_revivals = 0;
};

class ParallelMaster final : public TaskRunner {
 public:
  /// `data` must outlive the master. A round the fabric cannot finish is
  /// evaluated in-process on it, with the evaluator the workers run, so the
  /// search result is unchanged.
  ParallelMaster(Transport& transport, int workers,
                 const PatternAlignment& data, SubstModel model,
                 RateModel rates, MasterOptions options = {});

  /// Installs the kTelemetry consumer: frames arriving mid-round or via
  /// pump() are verified, decoded and applied to `aggregator` (thread-safe;
  /// it must outlive the master). Without one, frames are dropped.
  void set_telemetry(obs::TelemetryAggregator* aggregator) {
    telemetry_ = aggregator;
  }

  /// Drains fabric messages while NO round is in flight (telemetry frames
  /// otherwise sit queued between rounds and every rank looks stale). Safe
  /// to call concurrently with run_round: if a round holds the receive
  /// lock, pump returns immediately — the in-round loop is already
  /// consuming frames. Returns the number of messages drained.
  std::size_t pump();

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override;
  int worker_count() const override { return workers_; }

  /// Delta view: this master's bumps of the registry counters since
  /// construction.
  MasterStats stats() const;

 private:
  /// Evaluates the round through the serial fallback, built on first use.
  RoundOutcome degrade(std::uint64_t round_id,
                       const std::vector<TreeTask>& tasks,
                       const std::string& reason);
  /// One attempt: seal, send, watch. Throws the internal RoundFailed signal
  /// on watchdog expiry or a foreman-reported failure; the supervisor loop
  /// in run_round decides whether to retry or degrade.
  RoundOutcome attempt_round(std::uint64_t round_id,
                             const std::vector<TreeTask>& tasks);

  /// Opens and applies one kTelemetry payload; a frame that fails to open
  /// counts as corrupt.
  void handle_telemetry(const std::vector<std::uint8_t>& payload);

  /// Where each MasterStats field lives in the registry (a delta view, the
  /// same pattern as ForemanStats).
  static constexpr obs::CounterField<MasterStats> kCounterFields[] = {
      {"master.rounds", &MasterStats::rounds},
      {"master.progress_messages", &MasterStats::progress_messages},
      {"master.unexpected_tags", &MasterStats::unexpected_tags},
      {"master.stale_messages", &MasterStats::stale_messages},
      {"master.corrupt_messages", &MasterStats::corrupt_messages},
      {"master.watchdog_trips", &MasterStats::watchdog_trips},
      {"master.rounds_failed", &MasterStats::rounds_failed},
      {"master.serial_fallbacks", &MasterStats::serial_fallbacks},
      {"master.round_retries", &MasterStats::round_retries},
      {"master.fabric_revivals", &MasterStats::fabric_revivals},
  };

  Transport& transport_;
  int workers_;
  MasterOptions options_;
  obs::CounterSet<MasterStats, kCounterFields> counters_;
  /// Counter values at construction; stats() subtracts these.
  MasterStats start_;
  const PatternAlignment& data_;
  SubstModel model_;
  RateModel rates_;
  /// Degraded-mode evaluator, built on first use so that a fault-free run
  /// never allocates it.
  std::unique_ptr<SerialTaskRunner> fallback_;
  obs::TelemetryAggregator* telemetry_ = nullptr;
  /// Serializes transport receives between an in-flight round
  /// (attempt_round) and the idle-period pump(); without it the pump could
  /// steal a kRoundDone out from under the round loop.
  std::mutex recv_mutex_;
  std::uint64_t next_round_id_ = 1;
  /// Set when the watchdog trips (the foreman itself is unresponsive);
  /// later rounds then skip straight to the fallback instead of paying the
  /// watchdog timeout again. A foreman-reported kRoundFailed does NOT set
  /// this: the foreman is alive and detects a dead worker pool instantly,
  /// and probation may yet recover the workers.
  bool degraded_ = false;
};

}  // namespace fdml
