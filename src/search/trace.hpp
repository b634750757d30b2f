// Search traces: the per-round task structure and measured per-task CPU
// costs of a real search run. The discrete-event cluster simulator replays
// traces at arbitrary processor counts to reproduce the paper's Figures 3/4
// on hardware that does not have 64 CPUs (see DESIGN.md, substitutions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fdml {

enum class RoundKind : std::uint8_t {
  kInitial = 0,     ///< first full optimization of the 3-taxon tree
  kInsertion = 1,   ///< the (2i-5) quick-add candidates for one taxon
  kWinner = 2,      ///< full smoothing of the chosen insertion
  kRearrange = 3,   ///< one round of subtree rearrangements
};

const char* round_kind_name(RoundKind kind);

struct RoundTrace {
  RoundKind kind = RoundKind::kInsertion;
  /// Taxa in the tree during this round.
  int taxa_in_tree = 0;
  /// Worker CPU seconds per task of this round.
  std::vector<double> task_cpu_seconds;
  /// Wire bytes for each task message and its result (task+result summed).
  std::vector<std::uint64_t> task_bytes;
  /// Master CPU seconds between receiving this round's results and issuing
  /// the next round (candidate generation, comparisons).
  double master_seconds = 0.0;
};

struct SearchTrace {
  std::string dataset;
  int num_taxa = 0;
  std::vector<RoundTrace> rounds;

  std::size_t total_tasks() const;
  double total_task_seconds() const;
  double total_master_seconds() const;

  /// Scales every task and master cost by `factor` (the scaling studies
  /// slow a recorded trace down to Power3+-era CPU speed).
  void scale_costs(double factor);
};

}  // namespace fdml
