// TaskRunner: where candidate trees get evaluated. The search driver is
// agnostic to the backend — the serial runner evaluates tasks in-process
// ("the worker process acts as a subroutine in the serial version"), while
// the parallel module provides a runner that dispatches rounds through the
// foreman over a Transport.
//
// Matching the paper's protocol, a round returns only the *best* tree (the
// foreman compares likelihood values; the master never re-evaluates
// returned trees) plus per-task accounting used by the search trace and the
// scaling-trace recorder.
#pragma once

#include <cstdint>
#include <vector>

#include "search/task.hpp"
#include "search/task_evaluator.hpp"

namespace fdml {

/// Per-task accounting returned with each round.
struct TaskStat {
  std::uint64_t task_id = 0;
  double cpu_seconds = 0.0;
  /// Wire bytes: serialized task + serialized result.
  std::uint64_t bytes = 0;
  int worker = -1;
};

struct RoundOutcome {
  /// The tree with the highest likelihood in the round.
  TaskResult best;
  /// One entry per task (completion order).
  std::vector<TaskStat> stats;
};

class TaskRunner {
 public:
  virtual ~TaskRunner() = default;

  /// Evaluates a round of tasks. A round is a synchronization barrier: the
  /// outcome is produced only after every task has been evaluated.
  virtual RoundOutcome run_round(const std::vector<TreeTask>& tasks) = 0;

  /// Number of workers evaluating in parallel (1 for serial).
  virtual int worker_count() const { return 1; }
};

/// The paper's serial build: tasks run inline, one after another.
class SerialTaskRunner : public TaskRunner {
 public:
  SerialTaskRunner(const PatternAlignment& data, SubstModel model,
                   RateModel rates);

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override;

 private:
  TaskEvaluator evaluator_;
};

/// Serialized size of a task/result pair (shared by runners for the
/// compute-per-byte accounting).
std::uint64_t wire_bytes(const TreeTask& task, const TaskResult& result);

}  // namespace fdml
