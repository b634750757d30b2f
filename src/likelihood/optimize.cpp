#include "likelihood/optimize.hpp"

#include <algorithm>
#include <cmath>

namespace fdml {

namespace {

/// Safeguarded Newton solve on one captured edge-likelihood view: returns
/// the branch length in [kMinBranchLength, kMaxBranchLength] that maximizes
/// f, starting from t0. Commits nothing; optimize_edge does.
double newton_branch_solve(const EdgeLikelihood& f, double t0) {
  double lo = kMinBranchLength;
  double hi = kMaxBranchLength;
  double t = std::clamp(t0, lo, hi);

  for (int iter = 0; iter < kMaxNewtonIterations; ++iter) {
    const auto [d1, d2] = f.derivatives(t);
    // Already at a stationary point: stop before taking another step.
    if (std::fabs(d1) <= kDerivativeTolerance) break;
    // Shrink the bracket around the maximum using the gradient sign.
    if (d1 > 0.0) {
      lo = t;
    } else {
      hi = t;
    }
    double next;
    if (d2 < 0.0) {
      next = t - d1 / d2;
      if (next <= lo || next >= hi) {
        next = 0.5 * (lo + hi);  // Newton left the bracket: bisect
      }
    } else {
      // Convex region (e.g. at a plateau); a Newton step would head for a
      // minimum, so bisect the gradient-sign bracket instead.
      next = 0.5 * (lo + hi);
    }
    const double change = std::fabs(next - t);
    t = next;
    if (change <= kBranchTolerance * std::max(t, 1e-3)) break;
    if (hi - lo <= kBranchTolerance * std::max(lo, 1e-3)) break;
  }

  return std::clamp(t, kMinBranchLength, kMaxBranchLength);
}

/// Appends (node, child) for each neighbor of `node` other than `from`, in
/// adjacency-slot order, each followed by the edges of the subtree behind
/// that child (fastDNAml's smooth() recursion).
void append_preorder_edges(const Tree& tree, int node, int from,
                           std::vector<std::pair<int, int>>& order) {
  for (int s = 0; s < 3; ++s) {
    const int child = tree.neighbor(node, s);
    if (child == Tree::kNoNode || child == from) continue;
    order.emplace_back(node, child);
    append_preorder_edges(tree, child, node, order);
  }
}

}  // namespace

BranchOptimizer::BranchOptimizer(LikelihoodEngine& engine) : engine_(engine) {}

double BranchOptimizer::optimize_edge(Tree& tree, int u, int v) {
  const EdgeLikelihood f = engine_.edge_likelihood(u, v);
  const double t0 = tree.length(u, v);
  const double t = newton_branch_solve(f, t0);
  // A solve that lands back on its start changes nothing a CLV depends on.
  if (t != t0) {
    tree.set_length(u, v, t);
    engine_.on_length_changed(u, v);
  }
  ++edge_optimizations_;
  return t;
}

double BranchOptimizer::smooth(Tree& tree, int passes) {
  std::vector<std::pair<int, int>> order;
  order.reserve(static_cast<std::size_t>(tree.num_edges()));
  const std::vector<int> tips = tree.tips();
  if (!tips.empty()) append_preorder_edges(tree, tips.front(), Tree::kNoNode, order);
  smooth_edges(tree, order, passes);
  return engine_.log_likelihood();
}

void BranchOptimizer::smooth_edges(Tree& tree,
                                   const std::vector<std::pair<int, int>>& edges,
                                   int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    double worst_move = 0.0;
    for (const auto& [u, v] : edges) {
      const double before = tree.length(u, v);
      const double after = optimize_edge(tree, u, v);
      worst_move = std::max(worst_move,
                            std::fabs(after - before) / std::max(before, 1e-3));
    }
    if (worst_move < kSmoothTolerance) break;
  }
}

}  // namespace fdml
