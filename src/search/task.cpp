#include "search/task.hpp"

#include <algorithm>
#include <stdexcept>

namespace fdml {

void TreeTask::pack(Packer& packer) const {
  packer.put_u64(task_id);
  packer.put_u64(round_id);
  packer.put_string(newick);
  packer.put_i32(focus_taxon);
  for (const int taxon : regraft_taxa) packer.put_i32(taxon);
  packer.put_f64(screen_lnl);
}

TreeTask TreeTask::unpack(Unpacker& unpacker) {
  TreeTask task;
  task.task_id = unpacker.get_u64();
  task.round_id = unpacker.get_u64();
  task.newick = unpacker.get_string();
  task.focus_taxon = unpacker.get_i32();
  for (int& taxon : task.regraft_taxa) taxon = unpacker.get_i32();
  task.screen_lnl = unpacker.get_f64();
  if (task.focus_taxon < -1) {
    throw std::invalid_argument("TreeTask: negative focus taxon");
  }
  if (!task.marker_well_formed()) {
    throw std::invalid_argument("TreeTask: malformed regraft marker");
  }
  return task;
}

bool TreeTask::marker_well_formed() const {
  const auto& taxa = regraft_taxa;
  if (std::all_of(taxa.begin(), taxa.end(),
                  [](int taxon) { return taxon == -1; })) {
    return true;
  }
  return std::all_of(taxa.begin(), taxa.end(),
                     [](int taxon) { return taxon >= 0; }) &&
         taxa[0] != taxa[1] && taxa[0] != taxa[2] && taxa[1] != taxa[2] &&
         focus_taxon < 0;
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
