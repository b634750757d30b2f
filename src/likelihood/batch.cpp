#include "likelihood/batch.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fdml {

namespace {

using KernelClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(KernelClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(KernelClock::now() -
                                                           start)
          .count());
}

}  // namespace

BatchEdgeEvaluator::BatchEdgeEvaluator(LikelihoodEngine& engine)
    : engine_(engine) {}

void BatchEdgeEvaluator::ensure_capacity(std::size_t count) {
  if (count <= capacity_) return;
  const std::size_t edge_stride = engine_.num_categories_ * 4 * engine_.padded_;
  // Zero-fill so plane tails ([num_patterns_, padded_)) stay inert through
  // every kernel, same contract as the engine arenas.
  junction_values_.assign(count * edge_stride, 0.0);
  junction_scale_.assign(count * engine_.padded_, 0);
  coeff_.assign(count * edge_stride, 0.0);
  workspaces_.resize(count);
  views_.resize(count);
  a_planes_.resize(count);
  b_planes_.resize(count);
  coeff_planes_.resize(count);
  a_values_.resize(count);
  b_values_.resize(count);
  a_scales_.resize(count);
  b_scales_.resize(count);
  a_cats_.resize(count);
  b_cats_.resize(count);
  capacity_ = count;
}

void BatchEdgeEvaluator::capture(const std::vector<Edge>& edges) {
  const std::size_t count = edges.size();
  count_ = 0;
  if (count == 0) return;
  ensure_capacity(count);
  const Tree& tree = *engine_.tree_;

  // Pass 1 — the shared traversal: make every base CLV the batch needs
  // valid before any pointers are taken. ensure_clv only ever computes
  // (never invalidates), and each Clv owns its storage, so the pointers
  // resolved in pass 2 stay stable for the whole batch.
  for (const Edge& e : edges) {
    const int su = tree.find_slot(e.u, e.v);
    const int sv = tree.find_slot(e.v, e.u);
    if (su < 0 || sv < 0) throw std::logic_error("batch capture: not an edge");
    if (!tree.is_tip(e.u)) engine_.ensure_clv(e.u, su);
    if (!tree.is_tip(e.v)) engine_.ensure_clv(e.v, sv);
  }

  // Pass 2 — resolve the per-edge operand planes, exactly as
  // edge_likelihood() does for a single edge.
  for (std::size_t k = 0; k < count; ++k) {
    const Edge& e = edges[k];
    if (tree.is_tip(e.u)) {
      a_values_[k] = engine_.tip_planes(e.u);
      a_scales_[k] = nullptr;
      a_cats_[k] = 0;
    } else {
      const auto& clv = engine_.ensure_clv(e.u, tree.find_slot(e.u, e.v));
      a_values_[k] = clv.values.data();
      a_scales_[k] = LikelihoodEngine::scale_of(clv);
      a_cats_[k] = 1;
    }
    if (tree.is_tip(e.v)) {
      b_values_[k] = engine_.tip_planes(e.v);
      b_scales_[k] = nullptr;
      b_cats_[k] = 0;
    } else {
      const auto& clv = engine_.ensure_clv(e.v, tree.find_slot(e.v, e.u));
      b_values_[k] = clv.values.data();
      b_scales_[k] = LikelihoodEngine::scale_of(clv);
      b_cats_[k] = 1;
    }
  }

  project_and_finalize(count);
}

void BatchEdgeEvaluator::capture_insertions(
    int tip, const std::vector<Insertion>& candidates) {
  const std::size_t count = candidates.size();
  count_ = 0;
  if (count == 0) return;
  ensure_capacity(count);
  const Tree& tree = *engine_.tree_;
  const std::size_t padded = engine_.padded_;
  const std::size_t edge_stride = engine_.num_categories_ * 4 * padded;
  if (!tree.is_tip(tip)) {
    throw std::logic_error("capture_insertions: focus is not a tip");
  }

  // Each candidate's junction CLV is the combine compute_internal_clv would
  // run after a real insertion: children u and v keep their toward-junction
  // CLVs, which in the base tree are their toward-each-other CLVs (the
  // junction takes over the other endpoint's adjacency slot). The lazy
  // cache makes this the shared traversal too — a base CLV needed by
  // several candidates is computed exactly once.
  for (std::size_t k = 0; k < count; ++k) {
    const Insertion& c = candidates[k];
    const int su = tree.find_slot(c.u, c.v);
    const int sv = tree.find_slot(c.v, c.u);
    if (su < 0 || sv < 0) {
      throw std::logic_error("capture_insertions: not an edge");
    }
    const int children[2] = {c.u, c.v};
    const int back_slots[2] = {tree.is_tip(c.u) ? -1 : su,
                               tree.is_tip(c.v) ? -1 : sv};
    const double lengths[2] = {c.length_u, c.length_v};
    const bool scaled = engine_.combine_children(
        children, back_slots, lengths,
        junction_values_.data() + k * edge_stride,
        junction_scale_.data() + k * padded);
    a_values_[k] = junction_values_.data() + k * edge_stride;
    a_scales_[k] = scaled ? junction_scale_.data() + k * padded : nullptr;
    a_cats_[k] = 1;
    b_values_[k] = engine_.tip_planes(tip);
    b_scales_[k] = nullptr;
    b_cats_[k] = 0;
  }

  project_and_finalize(count);
}

void BatchEdgeEvaluator::project_and_finalize(std::size_t count) {
  const std::size_t padded = engine_.padded_;
  const std::size_t cat_stride = 4 * padded;
  const std::size_t edge_stride = engine_.num_categories_ * cat_stride;
  const auto kernel_start = KernelClock::now();

  // One pattern-blocked kernel call per category projects every edge's
  // coefficient planes while the shared projection rows are hot.
  const Mat4& left = engine_.model_.left_eigenvectors();
  for (std::size_t cat = 0; cat < engine_.num_categories_; ++cat) {
    const double prob = engine_.rates_.probability(cat);
    for (std::size_t k = 0; k < count; ++k) {
      a_planes_[k] = a_values_[k] + (a_cats_[k] ? cat * cat_stride : 0);
      b_planes_[k] = b_values_[k] + (b_cats_[k] ? cat * cat_stride : 0);
      coeff_planes_[k] = coeff_.data() + k * edge_stride + cat * cat_stride;
    }
    engine_.kernels_->edge_capture_multi(padded, count, a_planes_.data(),
                                         b_planes_.data(), &engine_.pr_[0][0],
                                         &left[0][0], prob,
                                         coeff_planes_.data());
  }

  for (std::size_t k = 0; k < count; ++k) {
    EdgeLikelihood::Workspace& ws = workspaces_[k];
    ws.coeff = coeff_.data() + k * edge_stride;
    ws.lam = engine_.lam_.data();
    ws.weights = engine_.weights_.data();
    ws.site = engine_.edge_site_.data();
    ws.site_d1 = engine_.edge_site_d1_.data();
    ws.site_d2 = engine_.edge_site_d2_.data();
    ws.padded = padded;
    ws.kernels = engine_.kernels_;
    views_[k] = engine_.make_view(&ws, a_scales_[k], b_scales_[k]);
  }

  engine_.counters_.edge_captures += count;
  engine_.counters_.scratch_bytes_reused +=
      count * edge_stride * sizeof(double);
  engine_.counters_.kernel_ns += elapsed_ns(kernel_start);
  engine_.flops_ += count * engine_.num_categories_ * engine_.num_patterns_ * 40;
  count_ = count;

  obs::MetricsRegistry::process()
      .histogram("kernel.batch_fill", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0})
      .observe(static_cast<double>(count));
  // Mirror the occupancy sample into the trace stream so trace_report can
  // show how full edge batches ran for a specific recorded search (the
  // registry histogram is process-lifetime, the trace is per run).
  obs::counter("batch_fill", static_cast<std::int64_t>(count));
}

}  // namespace fdml
