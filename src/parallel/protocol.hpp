// Payload codecs for the parallel runtime's messages. Each unpack reads one
// message from an Unpacker; receivers call it through open_sealed
// (comm/integrity.hpp), which also rejects bytes left over.
#pragma once

#include <cstdint>
#include <vector>

#include "search/runner.hpp"
#include "search/task.hpp"
#include "util/packer.hpp"

namespace fdml {

/// Fixed rank layout (paper Figure 2): master generates and compares trees,
/// foreman owns the work/ready queues, workers optimize. The monitor rank
/// keeps its slot — "the fully instrumented parallel version of fastDNAml
/// requires a minimum of four processors" — but run accounting lives in the
/// MetricsRegistry and reaches rank 0 in kTelemetry frames.
inline constexpr int kMasterRank = 0;
inline constexpr int kForemanRank = 1;
inline constexpr int kMonitorRank = 2;
inline constexpr int kFirstWorkerRank = 3;

/// master -> foreman: one round of candidate trees.
struct RoundMessage {
  std::uint64_t round_id = 0;
  std::vector<TreeTask> tasks;

  std::vector<std::uint8_t> pack() const;
  static RoundMessage unpack(Unpacker& unpacker);
};

/// foreman -> master: the round's best tree plus per-task accounting.
struct RoundDoneMessage {
  std::uint64_t round_id = 0;
  TaskResult best;
  std::vector<TaskStat> stats;

  std::vector<std::uint8_t> pack() const;
  static RoundDoneMessage unpack(Unpacker& unpacker);
};

/// foreman -> master: round liveness heartbeat, sent on every accepted task
/// so the master's watchdog can tell "slow" from "wedged".
struct ProgressMessage {
  std::uint64_t round_id = 0;
  std::uint64_t completed = 0;
  std::uint64_t expected = 0;

  std::vector<std::uint8_t> pack() const;
  static ProgressMessage unpack(Unpacker& unpacker);
};

/// foreman -> master: the round cannot complete (e.g. every worker is
/// delinquent); the master retries it or evaluates it in-process instead
/// of blocking forever.
struct RoundFailedMessage {
  std::uint64_t round_id = 0;
  std::string reason;

  std::vector<std::uint8_t> pack() const;
  static RoundFailedMessage unpack(Unpacker& unpacker);
};

/// worker -> foreman, as a kNack payload: the task decoded cleanly but the
/// worker's evaluator threw on it (say, a focus taxon not in the tree), so
/// no worker can evaluate it and the foreman fails the round instead of
/// requeueing. An empty kNack still means "the payload arrived malformed;
/// resend it".
struct TaskRejectedMessage {
  std::uint64_t round_id = 0;
  std::uint64_t task_id = 0;
  std::string reason;

  std::vector<std::uint8_t> pack() const;
  static TaskRejectedMessage unpack(Unpacker& unpacker);
};

}  // namespace fdml
