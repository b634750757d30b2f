#include "search/trace.hpp"

namespace fdml {

const char* round_kind_name(RoundKind kind) {
  switch (kind) {
    case RoundKind::kInitial: return "initial";
    case RoundKind::kInsertion: return "insertion";
    case RoundKind::kWinner: return "winner";
    case RoundKind::kRearrange: return "rearrange";
  }
  return "?";
}

std::size_t SearchTrace::total_tasks() const {
  std::size_t n = 0;
  for (const auto& round : rounds) n += round.task_cpu_seconds.size();
  return n;
}

double SearchTrace::total_task_seconds() const {
  double total = 0.0;
  for (const auto& round : rounds) {
    for (double s : round.task_cpu_seconds) total += s;
  }
  return total;
}

double SearchTrace::total_master_seconds() const {
  double total = 0.0;
  for (const auto& round : rounds) total += round.master_seconds;
  return total;
}

void SearchTrace::scale_costs(double factor) {
  for (auto& round : rounds) {
    for (double& s : round.task_cpu_seconds) s *= factor;
    round.master_seconds *= factor;
  }
}

}  // namespace fdml
