#include "likelihood/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace fdml {

namespace {

// Log-likelihood assigned to a zero-probability pattern (cannot happen with
// valid data; keeps the optimizer finite instead of emitting -inf/NaN).
constexpr double kZeroPatternLogPenalty = -1e30;

// The blocked CLV kernel tiles patterns by kPatternBlock (kernels.hpp): one
// block of every category's output plus both child blocks stays L1-resident,
// and the scaling pass touches each block while it is still hot.

using KernelClock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(KernelClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(KernelClock::now() -
                                                           start)
          .count());
}

// Transposed tip lookup table: tab[i * 16 + code] = sum over set bits j of
// code of p[i][j], ascending j — the dense 0/1-indicator dot product with
// the zero terms skipped, laid out so the SIMD tip kernel can gather a
// whole lane group from one state row.
void build_tip_table(const Mat4& p, double* tab) {
  for (int i = 0; i < 4; ++i) {
    for (int code = 0; code < 16; ++code) {
      double s = 0.0;
      for (int j = 0; j < 4; ++j) {
        if ((code >> j) & 1) s += p[i][j];
      }
      tab[i * 16 + code] = s;
    }
  }
}

}  // namespace

LikelihoodEngine::LikelihoodEngine(const PatternAlignment& data,
                                   SubstModel model, RateModel rates)
    : data_(data),
      model_(std::move(model)),
      rates_(std::move(rates)),
      num_patterns_(data.num_patterns()),
      padded_(round_up(data.num_patterns(), kPatternPad)),
      // NB: read rates_ (the member), not the moved-from parameter.
      num_categories_(rates_.num_categories()),
      kernels_(&active_kernel_table()) {
  counters_.simd_backend = kernels_->name;
  build_tip_clvs();
  weights_.assign(padded_, 0.0);
  std::copy(data_.weights().begin(), data_.weights().end(), weights_.begin());

  // Preallocate every kernel arena once; the hot path never allocates.
  // Plane tails ([num_patterns_, padded_)) stay zero forever — inert
  // through every kernel (see kernels.hpp).
  lam_.resize(num_categories_ * 4);
  rebuild_model_tables();
  clv_p_.resize(2 * num_categories_);
  tip_tab_.assign(2 * num_categories_ * 64, 0.0);
  edge_coeff_.assign(num_categories_ * 4 * padded_, 0.0);
  edge_site_.assign(padded_, 0.0);
  edge_site_d1_.assign(padded_, 0.0);
  edge_site_d2_.assign(padded_, 0.0);
  edge_ws_.coeff = edge_coeff_.data();
  edge_ws_.lam = lam_.data();
  edge_ws_.weights = weights_.data();
  edge_ws_.site = edge_site_.data();
  edge_ws_.site_d1 = edge_site_d1_.data();
  edge_ws_.site_d2 = edge_site_d2_.data();
  edge_ws_.padded = padded_;
  edge_ws_.kernels = kernels_;
}

void LikelihoodEngine::build_tip_clvs() {
  const std::size_t num_taxa = data_.num_taxa();
  tip_clvs_.assign(num_taxa * 4 * padded_, 0.0);
  tip_codes_.assign(num_taxa * padded_, 0);
  for (std::size_t t = 0; t < num_taxa; ++t) {
    double* planes = &tip_clvs_[t * 4 * padded_];
    for (std::size_t p = 0; p < num_patterns_; ++p) {
      const BaseCode code = data_.at(t, p);
      tip_codes_[t * padded_ + p] = code;
      for (int s = 0; s < 4; ++s) {
        planes[static_cast<std::size_t>(s) * padded_ + p] =
            (code & base_from_index(s)) ? 1.0 : 0.0;
      }
    }
  }
}

void LikelihoodEngine::rebuild_model_tables() {
  const Mat4& right = model_.right_eigenvectors();
  const Vec4& pi = model_.frequencies();
  const Vec4& lambda = model_.eigenvalues();
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 4; ++i) pr_[k][i] = pi[i] * right[i][k];
  }
  for (std::size_t cat = 0; cat < num_categories_; ++cat) {
    for (int k = 0; k < 4; ++k) {
      lam_[cat * 4 + k] = lambda[k] * rates_.rate(cat);
    }
  }
}

void LikelihoodEngine::set_model(SubstModel model) {
  model_ = std::move(model);
  rebuild_model_tables();  // fills in place; workspace pointers stay valid
  cache_.invalidate();
  invalidate_all();
}

void LikelihoodEngine::attach(const Tree& tree) {
  if (tree.num_taxa() != static_cast<int>(data_.num_taxa())) {
    throw std::invalid_argument("engine: tree/alignment taxon count mismatch");
  }
  tree_ = &tree;
  clvs_.resize(static_cast<std::size_t>(tree.max_nodes()) * 3);
  invalidate_all();
}

void LikelihoodEngine::invalidate_all() {
  for (auto& clv : clvs_) clv.valid = false;
}

void LikelihoodEngine::invalidate_node(int node) {
  for (int s = 0; s < 3; ++s) clvs_[key(node, s)].valid = false;
}

void LikelihoodEngine::save_clv_validity(std::vector<char>& out) const {
  out.resize(clvs_.size());
  for (std::size_t i = 0; i < clvs_.size(); ++i) {
    out[i] = clvs_[i].valid ? 1 : 0;
  }
}

void LikelihoodEngine::restore_clv_validity(const std::vector<char>& saved) {
  if (saved.size() != clvs_.size()) {
    throw std::logic_error("restore_clv_validity: stale snapshot");
  }
  for (std::size_t i = 0; i < clvs_.size(); ++i) {
    clvs_[i].valid = saved[i] != 0;
  }
}

void LikelihoodEngine::invalidate_away(int node, int toward) {
  if (tree_->is_tip(node)) return;
  for (int s = 0; s < 3; ++s) {
    const int nbr = tree_->neighbor(node, s);
    if (nbr == Tree::kNoNode || nbr == toward) continue;
    clvs_[key(node, s)].valid = false;
    invalidate_away(nbr, node);
  }
}

void LikelihoodEngine::on_length_changed(int u, int v) {
  invalidate_away(u, v);
  invalidate_away(v, u);
}

void LikelihoodEngine::ensure_edge_clvs(int u, int v) {
  const int su = tree_->find_slot(u, v);
  const int sv = tree_->find_slot(v, u);
  if (su < 0 || sv < 0) throw std::logic_error("ensure_edge_clvs: not an edge");
  if (!tree_->is_tip(u)) ensure_clv(u, su);
  if (!tree_->is_tip(v)) ensure_clv(v, sv);
}

const LikelihoodEngine::Clv& LikelihoodEngine::ensure_clv(int u, int slot) {
  Clv& clv = clvs_[key(u, slot)];
  if (clv.valid) return clv;
  compute_internal_clv(u, slot);
  return clv;
}

void LikelihoodEngine::compute_internal_clv(int u, int slot) {
  // Tips are handled inline by callers via tip planes; this is internal-only.
  const std::size_t cat_stride = 4 * padded_;
  Clv& clv = clvs_[key(u, slot)];
  const bool storage_reused = clv.values.size() == num_categories_ * cat_stride;
  clv.values.resize(num_categories_ * cat_stride);
  clv.scale.assign(padded_, 0);
  if (storage_reused) {
    counters_.scratch_bytes_reused += clv.values.size() * sizeof(double);
  }

  // Resolve the two children other than the direction `slot` points to
  // (recursing first so pointers stay stable, and so the kernel timer below
  // does not double-count nested computations). The counters always
  // combine the children's full arrays, whatever their flags say, so
  // site_log_likelihoods() (which reads the arrays) stays an independent
  // check of the flags.
  const double* child_values[2];
  const std::uint8_t* child_codes[2];
  const std::int32_t* child_scales[2];
  double lengths[2];
  bool child_is_tip[2];
  bool scaled = false;
  int child_count = 0;
  for (int s = 0; s < 3; ++s) {
    if (s == slot) continue;
    const int node = tree_->neighbor(u, s);
    if (node == Tree::kNoNode) throw std::logic_error("clv: malformed internal node");
    const int c = child_count++;
    lengths[c] = tree_->slot_length(u, s);
    if (tree_->is_tip(node)) {
      child_values[c] = tip_planes(node);
      child_codes[c] = &tip_codes_[static_cast<std::size_t>(node) * padded_];
      child_scales[c] = nullptr;
      child_is_tip[c] = true;
    } else {
      const Clv& child = ensure_clv(node, tree_->find_slot(node, u));
      child_values[c] = child.values.data();
      child_codes[c] = nullptr;
      child_scales[c] = child.scale.data();
      child_is_tip[c] = false;
      scaled = scaled || child.scaled;
    }
  }
  double* out_values = clv.values.data();

  const auto kernel_start = KernelClock::now();

  // Per-category transition matrices (cache-served) and tip lookup tables,
  // staged into preallocated scratch before the tiled sweep.
  for (std::size_t cat = 0; cat < num_categories_; ++cat) {
    const double rate = rates_.rate(cat);
    for (int c = 0; c < 2; ++c) {
      Mat4& p = clv_p_[static_cast<std::size_t>(c) * num_categories_ + cat];
      cache_.transition(model_, lengths[c] * rate, p);
      if (child_is_tip[c]) {
        build_tip_table(
            p, &tip_tab_[(static_cast<std::size_t>(c) * num_categories_ + cat) * 64]);
      }
    }
  }
  counters_.scratch_bytes_reused +=
      clv_p_.size() * sizeof(Mat4) + tip_tab_.size() * sizeof(double);

  // Pattern-block tiling: compute every category's slice of one block, then
  // rescale that block while its cache lines are still hot. Tail lanes
  // (>= num_patterns_) see all-zero inputs and stay zero.
  std::uint64_t rescaled = 0;
  for (std::size_t begin = 0; begin < padded_; begin += kPatternBlock) {
    const std::size_t end = std::min(begin + kPatternBlock, padded_);
    for (std::size_t cat = 0; cat < num_categories_; ++cat) {
      ClvOperand a;
      ClvOperand b;
      a.planes = child_values[0] + (child_is_tip[0] ? 0 : cat * cat_stride);
      b.planes = child_values[1] + (child_is_tip[1] ? 0 : cat * cat_stride);
      if (child_is_tip[0]) {
        a.codes = child_codes[0];
        a.tip_tab = &tip_tab_[cat * 64];
      } else {
        a.p = &clv_p_[cat][0][0];
      }
      if (child_is_tip[1]) {
        b.codes = child_codes[1];
        b.tip_tab = &tip_tab_[(num_categories_ + cat) * 64];
      } else {
        b.p = &clv_p_[num_categories_ + cat][0][0];
      }
      kernels_->clv_combine(begin, end, padded_, a, b,
                            out_values + cat * cat_stride);
    }

    // Combine child scale counters and rescale underflowing patterns of
    // this block (all categories are still L1-resident): vector max over
    // the planes plus a movemask picks out the underflowing lanes.
    rescaled += kernels_->clv_rescale(begin, end, padded_, num_categories_,
                                      out_values, child_scales[0],
                                      child_scales[1], clv.scale.data());
  }

  counters_.clv_rescales += rescaled;
  ++counters_.clv_computations;
  counters_.kernel_ns += elapsed_ns(kernel_start);
  flops_ += num_categories_ * num_patterns_ *
            (4 + (child_is_tip[0] ? 4u : 32u) + (child_is_tip[1] ? 4u : 32u));
  clv.scaled = scaled || rescaled != 0;
  clv.valid = true;
}

double LikelihoodEngine::log_likelihood() {
  // Full-tree evaluation span: CLV recomputation dominates it, so the
  // end-args record how much of the tree the lazy cache actually redid.
  obs::Span span("kernel", "tree_lnl");
  const std::uint64_t clv_before = counters_.clv_computations;
  const int root = tree_->any_internal();
  if (root == Tree::kNoNode) throw std::logic_error("log_likelihood: empty tree");
  const int nbr = tree_->neighbor(root, 0);
  const double lnl = log_likelihood_edge(root, nbr);
  span.set_end_args("clv",
                    static_cast<std::int64_t>(counters_.clv_computations -
                                              clv_before));
  return lnl;
}

double LikelihoodEngine::log_likelihood_edge(int u, int v) {
  const EdgeLikelihood f = edge_likelihood(u, v);
  return f.evaluate(tree_->length(u, v));
}

EdgeLikelihood LikelihoodEngine::edge_likelihood(int u, int v) {
  const std::size_t cat_stride = 4 * padded_;
  const int su = tree_->find_slot(u, v);
  const int sv = tree_->find_slot(v, u);
  if (su < 0 || sv < 0) throw std::logic_error("edge_likelihood: not an edge");

  const double* a_values;
  const std::int32_t* a_scale = nullptr;
  bool a_cats;
  if (tree_->is_tip(u)) {
    a_values = tip_planes(u);
    a_cats = false;
  } else {
    const Clv& clv = ensure_clv(u, su);
    a_values = clv.values.data();
    a_scale = scale_of(clv);
    a_cats = true;
  }
  const double* b_values;
  const std::int32_t* b_scale = nullptr;
  bool b_cats;
  if (tree_->is_tip(v)) {
    b_values = tip_planes(v);
    b_cats = false;
  } else {
    const Clv& clv = ensure_clv(v, sv);
    b_values = clv.values.data();
    b_scale = scale_of(clv);
    b_cats = true;
  }

  const auto kernel_start = KernelClock::now();

  // Project the per-pattern weights into the eigenbasis of Q:
  //   lnL(t) = sum_p w_p log( sum_c sum_k coeff[c,k,p] exp(lambda_k r_c t) )
  // with coeff[c,k,p] = (prob_c sum_i pi_i A_i right_ik)(sum_j left_kj B_j).
  // Four coefficients per (category, pattern) replace the 16-entry P(t)
  // contraction of the naive formulation; the projection writes coefficient
  // planes into the engine's preallocated arena via the SIMD kernel.
  const Mat4& left = model_.left_eigenvectors();
  for (std::size_t cat = 0; cat < num_categories_; ++cat) {
    const double prob = rates_.probability(cat);
    const double* a = a_values + (a_cats ? cat * cat_stride : 0);
    const double* b = b_values + (b_cats ? cat * cat_stride : 0);
    kernels_->edge_capture(padded_, a, b, &pr_[0][0], &left[0][0], prob,
                           &edge_coeff_[cat * cat_stride]);
  }

  const EdgeLikelihood f = make_view(a_scale, b_scale);

  ++counters_.edge_captures;
  counters_.scratch_bytes_reused += edge_coeff_.size() * sizeof(double);
  counters_.kernel_ns += elapsed_ns(kernel_start);
  flops_ += num_categories_ * num_patterns_ * 40;
  return f;
}

EdgeLikelihood LikelihoodEngine::make_view(const std::int32_t* a_scale,
                                           const std::int32_t* b_scale) {
  EdgeLikelihood f;
  f.model_ = &model_;
  f.rates_ = &rates_;
  f.cache_ = &cache_;
  f.ws_ = &edge_ws_;
  f.counters_ = &counters_;
  f.num_patterns_ = num_patterns_;

  // With no flagged operand every term below is +0.0, so skipping the loop
  // leaves the offset bit-identical.
  double offset = 0.0;
  if (a_scale != nullptr || b_scale != nullptr) {
    for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
      std::int32_t scale = 0;
      if (a_scale != nullptr) scale += a_scale[pat];
      if (b_scale != nullptr) scale += b_scale[pat];
      offset -= data_.weight(pat) * scale * kLogScaleStep;
    }
  }
  f.scale_offset_ = offset;
  return f;
}

double EdgeLikelihood::evaluate(double t) const {
  const auto kernel_start = KernelClock::now();
  const std::size_t num_categories = rates_->num_categories();
  const std::size_t padded = ws_->padded;
  double* site = ws_->site;

  // exp(lambda_k r_c t) is computed once per category (cache-served); the
  // per-pattern loop below is exp-free — a pure 4-coefficient dot.
  for (std::size_t cat = 0; cat < num_categories; ++cat) {
    const Vec4 e = cache_->exp_eigen(*model_, t * rates_->rate(cat));
    ws_->kernels->edge_evaluate(padded, ws_->coeff + cat * 4 * padded,
                                e.data(), /*accumulate=*/cat != 0, site);
  }

  double lnl = scale_offset_;
  for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
    const double weight = ws_->weights[pat];
    const double s = site[pat];
    if (s <= 0.0) {
      // A zero-probability pattern (should not happen with valid data).
      lnl += weight * kZeroPatternLogPenalty;
      continue;
    }
    lnl += weight * std::log(s);
  }

  ++counters_->edge_evaluations;
  counters_->scratch_bytes_reused += num_patterns_ * sizeof(double);
  counters_->kernel_ns += elapsed_ns(kernel_start);
  return lnl;
}

EdgeDerivatives EdgeLikelihood::derivatives(double t) const {
  const auto kernel_start = KernelClock::now();
  const std::size_t num_categories = rates_->num_categories();
  const std::size_t padded = ws_->padded;
  double* site = ws_->site;
  double* site_d1 = ws_->site_d1;
  double* site_d2 = ws_->site_d2;

  // Every category but the last accumulates s, s', s'' in the site planes;
  // the last one's pass reads them back and returns the weighted sums
  // (kernels.hpp). A zero-probability pattern (s <= 0) adds nothing.
  EdgeDerivatives out;
  for (std::size_t cat = 0; cat < num_categories; ++cat) {
    const Vec4 e = cache_->exp_eigen(*model_, t * rates_->rate(cat));
    const bool last = cat + 1 == num_categories;
    out = ws_->kernels->edge_derivatives(
        padded, ws_->coeff + cat * 4 * padded, e.data(), ws_->lam + cat * 4,
        /*accumulate=*/cat != 0, last ? ws_->weights : nullptr, site, site_d1,
        site_d2);
  }

  ++counters_->edge_evaluations;
  counters_->scratch_bytes_reused +=
      3u * (num_categories - 1) * num_patterns_ * sizeof(double);
  counters_->kernel_ns += elapsed_ns(kernel_start);
  return out;
}

std::vector<double> LikelihoodEngine::site_log_likelihoods() {
  std::vector<double> out;
  site_log_likelihoods(out);
  return out;
}

void LikelihoodEngine::site_log_likelihoods(std::vector<double>& out) {
  const int root = tree_->any_internal();
  const int nbr = tree_->neighbor(root, 0);
  const std::size_t cat_stride = 4 * padded_;

  const int su = tree_->find_slot(root, nbr);
  const int sv = tree_->find_slot(nbr, root);
  const Clv& a = ensure_clv(root, su);

  const double* b_values;
  const std::int32_t* b_scale = nullptr;
  bool b_cats;
  if (tree_->is_tip(nbr)) {
    b_values = tip_planes(nbr);
    b_cats = false;
  } else {
    const Clv& clv = ensure_clv(nbr, sv);
    b_values = clv.values.data();
    b_scale = clv.scale.data();
    b_cats = true;
  }

  // Per-pattern probabilities accumulate in the edge-site scratch plane
  // (clobbers any live EdgeLikelihood view, same contract as
  // edge_likelihood()); not a hot path, so the contraction stays scalar.
  const double t = tree_->length(root, nbr);
  const Vec4& pi = model_.frequencies();
  double* pattern_lnl = edge_site_.data();
  std::fill(pattern_lnl, pattern_lnl + num_patterns_, 0.0);
  Mat4 p{};
  for (std::size_t cat = 0; cat < num_categories_; ++cat) {
    const double rate = rates_.rate(cat);
    const double prob = rates_.probability(cat);
    cache_.transition(model_, t * rate, p);
    const double* av = &a.values[cat * cat_stride];
    const double* bv = b_values + (b_cats ? cat * cat_stride : 0);
    for (std::size_t pat = 0; pat < num_patterns_; ++pat) {
      double s = 0.0;
      for (int i = 0; i < 4; ++i) {
        double inner = 0.0;
        for (int j = 0; j < 4; ++j) {
          inner += p[i][j] * bv[static_cast<std::size_t>(j) * padded_ + pat];
        }
        s += pi[i] * av[static_cast<std::size_t>(i) * padded_ + pat] * inner;
      }
      pattern_lnl[pat] += prob * s;
    }
  }
  counters_.scratch_bytes_reused += num_patterns_ * sizeof(double);

  out.resize(data_.num_sites());
  for (std::size_t site = 0; site < out.size(); ++site) {
    const std::size_t pat = data_.pattern_of_site(site);
    std::int32_t scale = a.scale[pat];
    if (b_scale != nullptr) scale += b_scale[pat];
    // Same zero-probability clamp as EdgeLikelihood::evaluate: the
    // bootstrap / per-site-rate paths must never see NaN or -inf.
    const double pattern_probability = pattern_lnl[pat];
    const double log_probability = pattern_probability > 0.0
                                       ? std::log(pattern_probability)
                                       : kZeroPatternLogPenalty;
    out[site] = log_probability - scale * kLogScaleStep;
  }
}

KernelCounters LikelihoodEngine::counters() const {
  KernelCounters c = counters_;
  c.transition_hits = cache_.hits();
  c.transition_misses = cache_.misses();
  c.transition_evictions = cache_.evictions();
  return c;
}

}  // namespace fdml
