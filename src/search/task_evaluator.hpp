// The worker computation: deserialize a task, optimize, serialize a result.
// Shared by the serial runner, the in-process thread workers, and — were an
// MPI transport added — the MPI worker main loop.
//
// Insertion tasks (focus_taxon >= 0) are evaluated through a batched path:
// the evaluator keeps a *context* — the round's base tree (the task tree
// with the focus tip removed) with the engine attached to it — so the CLVs
// of the base tree are computed once and shared by every candidate
// insertion point of the round. Candidates are scored in chunks through
// BatchEdgeEvaluator: one multi-edge kernel pass captures all candidate
// tip-edge likelihoods, the Newton solves run off the still-hot coefficient
// planes, and only then is each candidate spliced in (scoped: validity
// flags snapshotted and restored) for its local smoothing passes.
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
// edge sequence and the same arithmetic whichever worker, chunk or context
// scores it — the cross-process determinism tests rely on this.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "likelihood/batch.hpp"
#include "likelihood/evaluator.hpp"
#include "search/task.hpp"

namespace fdml {

class TaskEvaluator {
 public:
  /// Candidate chunk size for the batched insertion path (bounds the batch
  /// arena footprint; rounds larger than this are processed in chunks).
  static constexpr std::size_t kChunk = 16;

  /// `data` must outlive the evaluator (the pattern table is shared).
  TaskEvaluator(const PatternAlignment& data, SubstModel model,
                RateModel rates);

  TaskResult evaluate(const TreeTask& task);

  /// Evaluates a batch of tasks (results in task order). Consecutive
  /// insertion tasks that share a base tree are scored through the batched
  /// multi-edge path; screened and full-smoothing tasks run one at a time.
  /// Bit-identical to calling evaluate() per task in the same order.
  /// Throws std::invalid_argument on a focus taxon that is not a tip of
  /// the task's tree, and on a focus task whose tree has fewer than 4 tips.
  std::vector<TaskResult> evaluate_batch(const std::vector<TreeTask>& tasks);

  LikelihoodEngine& engine() { return evaluator_.engine(); }

 private:
  /// An insertion task prepared for the batched path: parsed tree, local
  /// node ids, and the candidate edge mapped into context coordinates.
  struct Candidate {
    const TreeTask* task = nullptr;
    std::size_t result_index = 0;
    Tree tree;             ///< parsed task tree (writeback target)
    int junction = -1;     ///< ids in the parsed task tree
    int u = -1;
    int v = -1;
    double tip_length = 0.0;  ///< initial focus-tip branch length
    BatchEdgeEvaluator::Insertion insertion;  ///< in context coordinates
  };

  /// Verifies that `base` (task coordinates) is bit-identical to the
  /// context base tree and fills `map_` (task node id -> context node id).
  bool verify_against_context(const Tree& base);
  /// Adopts `base` as the new context (attaches the engine; identity map).
  void rebuild_context(Tree&& base, std::uint64_t round_id);

  /// Canonical local smoothing (kQuickAddPasses passes at most) of the
  /// three edges at a freshly inserted focus tip: [(junction, tip),
  /// (junction, a), (junction, b)] with a and b ordered by the minimum
  /// taxon id behind them — representation invariant. The pass-0 tip-edge
  /// solve is the batched one, already applied, started from
  /// `pass0_tip_before`. Returns the final log-likelihood across the
  /// canonical (tip, junction) edge.
  double smooth_focus(Tree& tree, int tip, int junction,
                      double pass0_tip_before);

  /// Rearrangement candidates (regraft marker set): smooths the edges
  /// within two edges of the regraft junction for kQuickAddPasses passes at
  /// most; returns that local result if its lnL is below the task's screen,
  /// else evaluate_full's result (local CPU time added). Throws
  /// std::invalid_argument on a malformed marker or one naming a taxon
  /// that is not in the tree.
  TaskResult evaluate_screened(const TreeTask& task);
  /// Full-smoothing path (focus_taxon < 0, no marker).
  TaskResult evaluate_full(const TreeTask& task);

  /// Phase A + B for a prepared chunk: one batched capture + solve, then
  /// per-candidate scoped insertion and local smoothing.
  void flush_chunk(std::vector<Candidate>& chunk,
                   std::vector<TaskResult>& results);
  /// Phase B for one candidate (context tree mutation is scoped: validity
  /// flags and the split edge's length are restored on exit).
  TaskResult evaluate_candidate(Candidate& c, double t1, double phase_a_share);

  TaskResult finish_result(const TreeTask& task, double log_likelihood,
                           const Tree& tree, double cpu_seconds);

  const PatternAlignment& data_;
  TreeEvaluator evaluator_;
  BatchEdgeEvaluator batch_;

  // Round context: base tree the engine is attached to, valid while no
  // other attach intervened. ctx_round_ keys the fast-path check.
  std::optional<Tree> ctx_base_;
  bool ctx_valid_ = false;
  std::uint64_t ctx_round_ = 0;
  std::vector<int> map_;           ///< task node id -> context node id
  std::vector<char> ctx_validity_; ///< CLV validity snapshot scratch
};

}  // namespace fdml
