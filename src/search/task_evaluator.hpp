// The worker computation: deserialize a task, optimize, serialize a result.
// Shared by the serial runner, the in-process thread workers, and — were an
// MPI transport added — the MPI worker main loop.
//
// Insertion tasks (focus_taxon >= 0) are scored against a *context*: the
// round's base tree (the task tree with the focus tip removed) with the
// engine attached to it, so the CLVs of the base tree are computed once and
// shared by every candidate insertion point of the round. Each candidate is
// spliced into the context with the task's own local lengths, scoped
// (validity flags snapshotted and restored), and its three attachment edges
// are smoothed for kQuickAddPasses passes at most.
//
// Rearrangement candidates (regraft marker set) are screened: the edges
// within two edges of the regraft junction are smoothed against a freshly
// attached tree, and only a candidate whose local lnL reaches the task's
// screen is then fully smoothed, from the task's own lengths — so a
// screened-in result is bit-identical to the unmarked task's.
//
// Determinism contract: the result of a task is a pure function of the
// task. Every incoming task is verified against the context bitwise
// (topology under canonical min-taxon child ordering, branch lengths
// compared exactly); on mismatch the context is rebuilt from the task
// itself. A candidate therefore gets the same CLVs, the same canonical
// edge sequence and the same arithmetic whichever worker or context scores
// it — the cross-process determinism tests rely on this.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "likelihood/evaluator.hpp"
#include "search/task.hpp"

namespace fdml {

class TaskEvaluator {
 public:
  /// `data` must outlive the evaluator (the pattern table is shared).
  TaskEvaluator(const PatternAlignment& data, SubstModel model,
                RateModel rates);

  /// Scores one task. Throws std::invalid_argument on a focus taxon that is
  /// not a tip of the task's tree, on a focus task whose tree has fewer
  /// than 4 tips, and on a malformed regraft marker or one naming a taxon
  /// that is not in the tree.
  TaskResult evaluate(const TreeTask& task);

  LikelihoodEngine& engine() { return evaluator_.engine(); }

 private:
  /// Verifies that `base` (task coordinates) is bit-identical to the
  /// context base tree and fills `map_` (task node id -> context node id).
  bool verify_against_context(const Tree& base);
  /// Adopts `base` as the new context (attaches the engine; identity map).
  void rebuild_context(Tree&& base, std::uint64_t round_id);

  /// Insertion candidates (focus_taxon >= 0): the focus tip is spliced into
  /// the context (scoped: validity flags and the split edge's length are
  /// restored on exit) and its three attachment edges [(junction, tip),
  /// (junction, a), (junction, b)], with a and b ordered by the minimum
  /// taxon id behind them, are smoothed; the result is the lnL across the
  /// canonical (tip, junction) edge, with the optimized local lengths
  /// written back into the task's own tree.
  TaskResult evaluate_insertion(const TreeTask& task);
  /// Rearrangement candidates (regraft marker set): smooths the edges
  /// within two edges of the regraft junction for kQuickAddPasses passes at
  /// most; returns that local result if its lnL is below the task's screen,
  /// else evaluate_full's result (local CPU time added).
  TaskResult evaluate_screened(const TreeTask& task);
  /// Full-smoothing path (focus_taxon < 0, no marker).
  TaskResult evaluate_full(const TreeTask& task);

  TaskResult finish_result(const TreeTask& task, double log_likelihood,
                           const Tree& tree, double cpu_seconds);

  const PatternAlignment& data_;
  TreeEvaluator evaluator_;

  // Round context: base tree the engine is attached to, valid while no
  // other attach intervened. ctx_round_ keys the fast-path check.
  std::optional<Tree> ctx_base_;
  bool ctx_valid_ = false;
  std::uint64_t ctx_round_ = 0;
  std::vector<int> map_;           ///< task node id -> context node id
  std::vector<char> ctx_validity_; ///< CLV validity snapshot scratch
};

}  // namespace fdml
