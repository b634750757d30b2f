#include "search/runner.hpp"

#include <stdexcept>
#include <utility>

namespace fdml {

std::uint64_t wire_bytes(const TreeTask& task, const TaskResult& result) {
  Packer task_packer;
  task.pack(task_packer);
  Packer result_packer;
  result.pack(result_packer);
  return task_packer.size() + result_packer.size();
}

SerialTaskRunner::SerialTaskRunner(const PatternAlignment& data, SubstModel model,
                                   RateModel rates)
    : evaluator_(data, std::move(model), std::move(rates)) {}

RoundOutcome SerialTaskRunner::run_round(const std::vector<TreeTask>& tasks) {
  if (tasks.empty()) throw std::invalid_argument("run_round: empty round");
  // One task at a time, in task order, as a worker scores them: the
  // insertion candidates of a round share the evaluator's base-tree
  // context, and the best-result selection is first-wins on ties.
  RoundOutcome outcome;
  bool have_best = false;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    TaskResult result = evaluator_.evaluate(tasks[i]);
    result.worker = 0;
    outcome.stats.push_back(
        {tasks[i].task_id, result.cpu_seconds, wire_bytes(tasks[i], result), 0});
    if (!have_best || result.log_likelihood > outcome.best.log_likelihood) {
      outcome.best = std::move(result);
      have_best = true;
    }
  }
  return outcome;
}

}  // namespace fdml
