// Branch-length optimization.
//
// fastDNAml optimizes one branch at a time with Newton's method on the
// log-likelihood (the 1-D function captured by EdgeLikelihood), sweeping
// the tree repeatedly ("smoothing") until lengths stop moving. Newton steps
// are safeguarded by a shrinking bracket so a bad quadratic model can only
// fall back to bisection, never diverge.
#pragma once

#include <utility>
#include <vector>

#include "likelihood/engine.hpp"
#include "tree/tree.hpp"

namespace fdml {

struct OptimizeOptions {
  /// Relative branch-length convergence for a single Newton solve.
  double branch_tolerance = 1e-6;
  /// A Newton solve also stops once |dlnL/dt| falls below this — the
  /// stationary point is found even if the bracket has not collapsed yet.
  double derivative_tolerance = 1e-6;
  int max_newton_iterations = 30;
  /// Maximum full-tree smoothing passes (fastDNAml's "smoothings").
  int max_smooth_passes = 8;
  /// A smoothing pass converges when no branch moved more than this
  /// (relative).
  double smooth_tolerance = 1e-4;
};

/// Safeguarded Newton solve on one captured edge-likelihood view: returns
/// the branch length in [kMinBranchLength, kMaxBranchLength] that maximizes
/// f, starting from t0. Pure — commits nothing to any tree or engine; the
/// caller decides what to do with the result. BranchOptimizer::optimize_edge
/// and BatchEdgeEvaluator-based insertion scoring share this exact sequence
/// so their solves are bit-identical given bit-identical views.
double newton_branch_solve(const EdgeLikelihood& f, double t0,
                           const OptimizeOptions& options);

class BranchOptimizer {
 public:
  /// The engine must already be attached to the tree being optimized.
  explicit BranchOptimizer(LikelihoodEngine& engine, OptimizeOptions options = {});

  /// Optimizes edge (u, v), commits the new length into the tree and engine
  /// cache (a length the solve left unchanged invalidates nothing). Returns
  /// the new length.
  double optimize_edge(Tree& tree, int u, int v);

  /// Repeated passes over all branches until converged or pass budget
  /// exhausted. Returns the final tree log-likelihood. The overload taking
  /// `max_passes` overrides the configured budget for this call.
  double smooth(Tree& tree);
  double smooth(Tree& tree, int max_passes);

  /// Optimizes only the listed edges for up to `passes` rounds — the rapid
  /// local treatment applied when testing a taxon insertion point (the
  /// paper's "rapid approximation of the insertion point"). Returns the
  /// tree log-likelihood after the final pass.
  double smooth_edges(Tree& tree, const std::vector<std::pair<int, int>>& edges,
                      int passes);

  const OptimizeOptions& options() const { return options_; }
  /// Newton solves performed (perf counter).
  std::uint64_t edge_optimizations() const { return edge_optimizations_; }

 private:
  LikelihoodEngine& engine_;
  OptimizeOptions options_;
  std::uint64_t edge_optimizations_ = 0;
};

}  // namespace fdml
