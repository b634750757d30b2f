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

// The Newton and smoothing limits are compiled in, as fastDNAml compiles in
// its `iterations`, `deltaz` and `smoothings`.

/// Relative branch-length convergence for a single Newton solve.
inline constexpr double kBranchTolerance = 1e-6;
/// A Newton solve also stops once |dlnL/dt| falls below this — the
/// stationary point is found even if the bracket has not collapsed yet.
inline constexpr double kDerivativeTolerance = 1e-6;
inline constexpr int kMaxNewtonIterations = 30;
/// Smoothing passes over every branch of a full evaluation (fastDNAml's
/// "smoothings").
inline constexpr int kFullSmoothPasses = 8;
/// Smoothing passes over the three branches at a quick-add insertion point.
inline constexpr int kQuickAddPasses = 2;
/// A smoothing pass converges when no branch moved more than this
/// (relative).
inline constexpr double kSmoothTolerance = 1e-4;

class BranchOptimizer {
 public:
  /// The engine must already be attached to the tree being optimized.
  explicit BranchOptimizer(LikelihoodEngine& engine);

  /// Optimizes edge (u, v) by a safeguarded Newton solve from its current
  /// length, clamped to [kMinBranchLength, kMaxBranchLength], and commits
  /// the new length into the tree and engine cache (a length the solve left
  /// unchanged invalidates nothing). Returns the new length.
  double optimize_edge(Tree& tree, int u, int v);

  /// Repeated passes over all branches until converged or `passes`
  /// exhausted. Returns the final tree log-likelihood.
  ///
  /// Branches are visited in fastDNAml's smoothTree order: a pre-order walk
  /// from the lowest-id tip, each edge followed by the subtree behind it,
  /// neighbors in adjacency-slot order. Most consecutive edges share a
  /// node, so a length commit invalidates few of the CLVs the next solve
  /// reads. The order is a function of the tree's adjacency alone.
  double smooth(Tree& tree, int passes = kFullSmoothPasses);

  /// Optimizes the listed edges, in list order, for up to `passes` rounds
  /// (the pass loop smooth() runs over every edge); stops early once no
  /// branch moved more than kSmoothTolerance. On the three edges at an
  /// inserted tip it scores an insertion candidate; on the edges around a
  /// regraft junction it is the screen of a rearrangement candidate.
  void smooth_edges(Tree& tree, const std::vector<std::pair<int, int>>& edges,
                    int passes);

  /// Newton solves performed (perf counter).
  std::uint64_t edge_optimizations() const { return edge_optimizations_; }

 private:
  LikelihoodEngine& engine_;
  std::uint64_t edge_optimizations_ = 0;
};

}  // namespace fdml
