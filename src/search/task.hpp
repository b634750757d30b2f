// The unit of parallel work: "optimize the branch lengths of this candidate
// topology and return it with its likelihood" — exactly what the paper's
// foreman dispatches to workers and what makes the compute-to-communication
// ratio so favourable (hundreds of thousands of FLOPs per byte returned).
#pragma once

#include <cstdint>
#include <string>

#include "util/packer.hpp"

namespace fdml {

struct TreeTask {
  std::uint64_t task_id = 0;
  /// Round of the search this task belongs to (rounds form the loose
  /// synchronization barriers of the paper's Figure 2 flow).
  std::uint64_t round_id = 0;
  /// Candidate topology with starting branch lengths, over the shared taxon
  /// namespace.
  std::string newick;
  /// When >= 0, this is a rapid insertion evaluation: only the three
  /// branches around this taxon's attachment point are optimized, for
  /// kQuickAddPasses passes (the paper's "rapid approximation of the
  /// insertion point"). -1 = optimize every branch, for kFullSmoothPasses
  /// passes. The worker picks the pass budget; the task does not carry it.
  int focus_taxon = -1;

  void pack(Packer& packer) const;
  static TreeTask unpack(Unpacker& unpacker);
};

struct TaskResult {
  std::uint64_t task_id = 0;
  std::uint64_t round_id = 0;
  double log_likelihood = 0.0;
  /// The candidate with optimized branch lengths.
  std::string newick;
  /// Worker thread-CPU seconds spent optimizing (drives the scaling-trace
  /// replays).
  double cpu_seconds = 0.0;
  /// Rank/id of the worker that produced this result (per-task stats).
  /// Kernel work is not carried here: each worker's engine counters reach
  /// rank 0 through its telemetry registry.
  int worker = -1;

  void pack(Packer& packer) const;
  static TaskResult unpack(Unpacker& unpacker);
};

}  // namespace fdml
