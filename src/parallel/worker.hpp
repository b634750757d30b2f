// The worker role: receive a tree, optimize its branch lengths, return it
// with its likelihood. Workers talk to the foreman for work and ship their
// registry's metric deltas to the master: always once on shutdown, and
// periodically when the telemetry interval is set.
#pragma once

#include <chrono>

#include "comm/transport.hpp"
#include "model/rates.hpp"
#include "model/submodel.hpp"
#include "seq/alignment.hpp"

namespace fdml {

struct WorkerStats {
  std::uint64_t tasks_evaluated = 0;
  double cpu_seconds = 0.0;
  /// Task payloads that failed the integrity check or threw during
  /// decoding; each one is answered with a kNack so the foreman can
  /// requeue the task immediately instead of waiting out the deadline.
  std::uint64_t corrupt_tasks = 0;
  /// Tasks that decoded cleanly but made the evaluator throw; each one is
  /// answered with a kNack carrying a TaskRejectedMessage, and the foreman
  /// fails the round instead of requeueing a task no worker can evaluate.
  std::uint64_t rejected_tasks = 0;
  /// Messages with tags the worker does not understand.
  std::uint64_t unexpected_tags = 0;
  /// kTelemetry frames shipped to the master.
  std::uint64_t telemetry_frames = 0;
};

struct WorkerRunOptions {
  /// Period between kTelemetry frames to the master. Zero turns off the
  /// periodic frames only (the loop then blocks on recv, so no timers run
  /// on the hot path); the final frame on shutdown is always sent.
  std::chrono::milliseconds telemetry_interval{0};
};

/// Runs the worker loop until shutdown. `data` must outlive the call.
WorkerStats worker_main(Transport& transport, const PatternAlignment& data,
                        SubstModel model, RateModel rates,
                        WorkerRunOptions options = {});

}  // namespace fdml
