// Batched multi-edge likelihood evaluation.
//
// fastDNAml's quick-add step scores one candidate insertion edge at a time:
// splice the new taxon in, capture the tip edge, Newton-solve, rip it back
// out. Per candidate that costs a full edge capture whose inputs (the tip
// planes and the shared eigen projection tables) are identical across the
// whole round — only the junction CLV differs. BatchEdgeEvaluator
// restructures the round:
//
//   1. one shared CLV traversal makes every base CLV the K candidates need
//      valid (they are all directions *toward* the candidate edges, so the
//      lazy cache computes each exactly once);
//   2. each candidate's junction CLV is computed into evaluator-owned
//      planes via LikelihoodEngine::combine_children — the same code that
//      would run after a real insertion, so the values are bit-identical —
//      without mutating the tree;
//   3. a single pattern-blocked edge_capture_multi kernel call per rate
//      category projects all K coefficient sets while the shared transition
//      rows and tip planes are hot in cache;
//   4. the K EdgeLikelihood views evaluate out of those still-hot
//      coefficient planes (Newton solves run per candidate, serially).
//
// Determinism contract: view(k).evaluate(t) and view(k).derivatives(t) are
// bit-identical to what engine.edge_likelihood(junction_k, tip) would
// return after
// actually inserting candidate k with the same local lengths — the kernels
// perform the same per-edge arithmetic in the same order (edge_capture_multi
// is block-interleaved across edges, but each edge's sequence of operations
// is exactly edge_capture's). The search layer relies on this to keep
// batched candidate scoring bit-identical to the sequential path.
#pragma once

#include <cstddef>
#include <vector>

#include "likelihood/engine.hpp"
#include "util/aligned.hpp"

namespace fdml {

class BatchEdgeEvaluator {
 public:
  /// Arenas grow to the largest batch seen and are then reused; the search
  /// layer chunks candidate rounds at this size to bound memory.
  static constexpr std::size_t kMaxBatch = 32;

  explicit BatchEdgeEvaluator(LikelihoodEngine& engine);

  /// A directed edge of the attached tree, same orientation convention as
  /// LikelihoodEngine::edge_likelihood(u, v).
  struct Edge {
    int u;
    int v;
  };

  /// A candidate insertion point for a new tip: edge (u, v) of the attached
  /// tree is split by a virtual junction with branch lengths `length_u`
  /// (junction -> u) and `length_v` (junction -> v).
  struct Insertion {
    int u = -1;
    int v = -1;
    double length_u = 0.0;
    double length_v = 0.0;
  };

  /// Captures K existing edges in one pattern-blocked pass. Each view(k) is
  /// bit-identical to engine.edge_likelihood(edges[k].u, edges[k].v).
  void capture(const std::vector<Edge>& edges);

  /// Captures the tip<->junction edge of K candidate insertions of `tip`
  /// without mutating the tree. view(k) is oriented as
  /// edge_likelihood(junction, tip) — junction CLV on the 'a' side.
  void capture_insertions(int tip, const std::vector<Insertion>& candidates);

  std::size_t size() const { return count_; }

  /// The k-th captured view. Valid until the next capture on this evaluator
  /// or the next edge_likelihood()/attach()/set_model() on the engine
  /// (coefficient planes are evaluator-owned, but the site accumulators and
  /// exp cache are shared with the engine). Views must be evaluated one at
  /// a time — they share site scratch.
  const EdgeLikelihood& view(std::size_t k) const { return views_[k]; }

 private:
  void ensure_capacity(std::size_t count);
  /// Shared tail of both capture paths: runs edge_capture_multi per
  /// category over the staged a/b plane pointers, finalizes views and
  /// counters, and records the batch-fill histogram sample.
  void project_and_finalize(std::size_t count);

  LikelihoodEngine& engine_;
  std::size_t count_ = 0;
  std::size_t capacity_ = 0;

  // Junction CLVs for capture_insertions: [k][cat][4][padded] planes plus
  // [k][padded] scale counters.
  AlignedVector<double> junction_values_;
  std::vector<std::int32_t> junction_scale_;

  // Captured eigen coefficients: [k][cat][4][padded].
  AlignedVector<double> coeff_;

  // Per-candidate workspaces/views; workspaces differ only in their coeff
  // base (site scratch is the engine's, shared serially).
  std::vector<EdgeLikelihood::Workspace> workspaces_;
  std::vector<EdgeLikelihood> views_;

  // Kernel-call staging: per-edge plane pointers for one category.
  std::vector<const double*> a_planes_;
  std::vector<const double*> b_planes_;
  std::vector<double*> coeff_planes_;
  // Per-edge category-plane bases and scale pointers resolved by capture()
  // (a scale pointer is null for a tip or an unflagged CLV, see
  // LikelihoodEngine::scale_of).
  std::vector<const double*> a_values_;
  std::vector<const double*> b_values_;
  std::vector<const std::int32_t*> a_scales_;
  std::vector<const std::int32_t*> b_scales_;
  std::vector<char> a_cats_;
  std::vector<char> b_cats_;
};

}  // namespace fdml
