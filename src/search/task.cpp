#include "search/task.hpp"

namespace fdml {

void TreeTask::pack(Packer& packer) const {
  packer.put_u64(task_id);
  packer.put_u64(round_id);
  packer.put_string(newick);
  packer.put_i32(focus_taxon);
}

TreeTask TreeTask::unpack(Unpacker& unpacker) {
  TreeTask task;
  task.task_id = unpacker.get_u64();
  task.round_id = unpacker.get_u64();
  task.newick = unpacker.get_string();
  task.focus_taxon = unpacker.get_i32();
  return task;
}

void TaskResult::pack(Packer& packer) const {
  packer.put_u64(task_id);
  packer.put_u64(round_id);
  packer.put_f64(log_likelihood);
  packer.put_string(newick);
  packer.put_f64(cpu_seconds);
  packer.put_i32(worker);
}

TaskResult TaskResult::unpack(Unpacker& unpacker) {
  TaskResult result;
  result.task_id = unpacker.get_u64();
  result.round_id = unpacker.get_u64();
  result.log_likelihood = unpacker.get_f64();
  result.newick = unpacker.get_string();
  result.cpu_seconds = unpacker.get_f64();
  result.worker = unpacker.get_i32();
  return result;
}

}  // namespace fdml
