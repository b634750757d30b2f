#include "likelihood/optimize.hpp"

#include <algorithm>
#include <cmath>

namespace fdml {

BranchOptimizer::BranchOptimizer(LikelihoodEngine& engine, OptimizeOptions options)
    : engine_(engine), options_(options) {}

double newton_branch_solve(const EdgeLikelihood& f, double t0,
                           const OptimizeOptions& options) {
  double lo = kMinBranchLength;
  double hi = kMaxBranchLength;
  double t = std::clamp(t0, lo, hi);

  for (int iter = 0; iter < options.max_newton_iterations; ++iter) {
    const auto [d1, d2] = f.derivatives(t);
    // Already at a stationary point: stop before taking another step.
    if (std::fabs(d1) <= options.derivative_tolerance) break;
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
    if (change <= options.branch_tolerance * std::max(t, 1e-3)) break;
    if (hi - lo <= options.branch_tolerance * std::max(lo, 1e-3)) break;
  }

  return std::clamp(t, kMinBranchLength, kMaxBranchLength);
}

double BranchOptimizer::optimize_edge(Tree& tree, int u, int v) {
  const EdgeLikelihood f = engine_.edge_likelihood(u, v);
  const double t0 = tree.length(u, v);
  const double t = newton_branch_solve(f, t0, options_);
  // A solve that lands back on its start changes nothing a CLV depends on.
  if (t != t0) {
    tree.set_length(u, v, t);
    engine_.on_length_changed(u, v);
  }
  ++edge_optimizations_;
  return t;
}

double BranchOptimizer::smooth(Tree& tree) {
  return smooth(tree, options_.max_smooth_passes);
}

double BranchOptimizer::smooth(Tree& tree, int max_passes) {
  for (int pass = 0; pass < max_passes; ++pass) {
    double worst_move = 0.0;
    for (const auto& [u, v] : tree.edges()) {
      const double before = tree.length(u, v);
      const double after = optimize_edge(tree, u, v);
      worst_move = std::max(worst_move,
                            std::fabs(after - before) / std::max(before, 1e-3));
    }
    if (worst_move < options_.smooth_tolerance) break;
  }
  return engine_.log_likelihood();
}

double BranchOptimizer::smooth_edges(Tree& tree,
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
    if (worst_move < options_.smooth_tolerance) break;
  }
  return engine_.log_likelihood();
}

}  // namespace fdml
