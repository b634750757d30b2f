// The foreman role: owns the work queue and ready queue, dispatches trees
// to workers, compares likelihood values, and implements the paper's fault
// tolerance — "if an individual worker process fails to return an evaluated
// tree within the time specified, that particular worker is removed from
// the list of available workers, and the tree that had been dispatched to
// that worker is sent to a different worker. If at some later time a
// response is received from the delinquent worker, then that worker is
// added back into the list of workers available to analyze trees."
//
// Beyond the paper, a healthy worker holds up to two tasks: its running
// one and one queued behind it in its mailbox or socket, so it starts its
// next tree the moment the running one ends instead of a round trip later
// (DESIGN.md §5b "Dispatch depth"). The queued task's deadline starts when
// the task ahead of it returns; a fault requeues both, running task first;
// a probation worker holds only its one probe.
//
// Hardening beyond the paper's happy path (see DESIGN.md "Worker health
// model"):
//   - Every inbound payload is read through open_sealed (seal, decode, no
//     trailing bytes); a corrupt payload quarantines its sender and bumps a
//     counter instead of killing the foreman thread.
//   - The single global timeout is a ceiling: each worker gets an adaptive
//     deadline (EWMA of its observed task durations x a slack factor of 4,
//     clamped to [2 s, worker_timeout]).
//   - A returning delinquent is not reinstated unconditionally: it enters
//     probation, receives one probe task at the next dispatch, and only
//     rejoins the ready queue when the probe completes in time.
//   - If every known worker is delinquent while work is outstanding, the
//     foreman reports kRoundFailed to the master instead of letting the
//     round hang forever.
#pragma once

#include <chrono>
#include <cstdint>

#include "comm/transport.hpp"

namespace fdml::obs {
class MetricsRegistry;
}

namespace fdml {

struct ForemanOptions {
  /// Deadline ceiling, and the deadline used before a worker has any
  /// observed durations (the paper's user-specified timeout parameter).
  std::chrono::milliseconds worker_timeout{30000};
  /// Heartbeat: every interval, ping worker ranks that are silent (no
  /// health record — a restarted process that has not said hello) or
  /// suspect (went quiet mid-round, e.g. the connection died under them).
  /// A live worker answers a ping with a fresh hello, which walks it
  /// through probation back to the ready queue; a dead one stays silent at
  /// no cost. 0 disables (plain cluster runs rely on hello-at-startup).
  std::chrono::milliseconds heartbeat_interval{0};
  /// Period between kTelemetry metric-delta frames to the master; zero
  /// disables the telemetry plane (no timers added to the event loop).
  std::chrono::milliseconds telemetry_interval{0};
  /// Metrics registry the foreman's counters live in; null = the process
  /// registry. ForemanStats is a delta view over these counters, so a
  /// cluster can hand every role one registry and still get exact
  /// per-incarnation stats.
  obs::MetricsRegistry* metrics = nullptr;
};

struct ForemanStats {
  std::uint64_t rounds = 0;
  std::uint64_t tasks_dispatched = 0;
  std::uint64_t tasks_completed = 0;
  std::uint64_t requeues = 0;
  std::uint64_t delinquencies = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t late_duplicate_results = 0;
  /// Results whose task id did not match the sender's in-flight record (a
  /// stale reply racing a requeue); the record is kept, not clobbered.
  std::uint64_t mismatched_results = 0;
  /// Payloads that failed the integrity check or threw during decoding.
  std::uint64_t corrupt_messages = 0;
  /// Senders quarantined for a corrupt payload (subset of probations).
  std::uint64_t quarantines = 0;
  /// Workers that entered the probation queue (reinstatement + quarantine).
  std::uint64_t probations = 0;
  /// Probe tasks dispatched to probation workers.
  std::uint64_t probation_probes = 0;
  std::uint64_t probation_passes = 0;
  std::uint64_t probation_failures = 0;
  /// kNack messages: an empty one reports a malformed task payload (the
  /// task is requeued), a reasoned one a task the worker's evaluator threw
  /// on.
  std::uint64_t task_nacks = 0;
  /// Reasoned NACKs. One naming the sender's in-flight task fails the
  /// round (no worker could evaluate it); any other is stale and dropped.
  std::uint64_t rejected_tasks = 0;
  /// Rounds abandoned because every known worker was delinquent.
  std::uint64_t rounds_failed = 0;
  /// Messages with tags the foreman does not understand.
  std::uint64_t unexpected_tags = 0;
  /// Heartbeat pings sent to silent or suspect workers.
  std::uint64_t heartbeat_pings = 0;
  /// Worker hellos handled: one per worker at startup, plus one per
  /// answered ping or restart.
  std::uint64_t hellos = 0;
};

/// Runs the foreman loop until a shutdown message arrives (which is
/// forwarded to every worker and the monitor). Returns the final counters.
ForemanStats foreman_main(Transport& transport, const ForemanOptions& options);

}  // namespace fdml
