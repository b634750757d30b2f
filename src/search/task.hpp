// The unit of parallel work: "optimize the branch lengths of this candidate
// topology and return it with its likelihood" — exactly what the paper's
// foreman dispatches to workers and what makes the compute-to-communication
// ratio so favourable (hundreds of thousands of FLOPs per byte returned).
//
// A task is one of three kinds, told apart by its fields:
//  * insertion (focus_taxon >= 0): smooth the three branches at the new
//    taxon's attachment point — the paper's rapid approximation;
//  * rearrangement candidate (regraft_taxa set): smooth the branches near
//    the regraft junction, then, only if that local lnL reaches
//    screen_lnl, smooth the whole tree from the task's own lengths;
//  * full (neither): smooth every branch.
#pragma once

#include <array>
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
  /// passes (after the screen, when regraft_taxa is set). The worker picks
  /// the pass budget; the task does not carry it. Values below -1 do not
  /// unpack.
  int focus_taxon = -1;
  /// Set on rearrangement candidates: the smallest taxon behind each of the
  /// regraft junction's three neighbours, the moved subtree's first. Their
  /// median node is the junction in any parse of the Newick. All -1 on
  /// other tasks.
  std::array<int, 3> regraft_taxa{-1, -1, -1};
  /// Marked tasks only: a candidate whose locally smoothed lnL falls below
  /// this returns that local result instead of a fully smoothed one.
  double screen_lnl = 0.0;

  bool screened() const { return regraft_taxa[0] >= 0; }
  /// The marker is unset, or three distinct taxa on a task without a focus
  /// taxon.
  bool marker_well_formed() const;

  void pack(Packer& packer) const;
  /// Throws on a truncated payload, a focus taxon below -1 and a marker
  /// that is not well formed.
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
