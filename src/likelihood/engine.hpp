// Felsenstein-pruning likelihood engine.
//
// Conditional likelihood vectors (CLVs) are stored per *directed* edge:
// CLV(u -> v) holds, for every site pattern and rate category, the
// probability of the data in the subtree on u's side of edge (u,v),
// conditional on each state at u. Two properties make this the right unit
// of caching for fastDNAml's optimizer:
//   1. CLV(u -> v) does not depend on the length of edge (u,v) itself, so a
//      Newton iteration on that edge needs no recomputation at all; and
//   2. committing a new length for (u,v) invalidates exactly the directed
//      CLVs pointing *away* from the edge, found by one outward sweep.
//
// Underflow protection follows the paper ("conditional likelihoods have
// been normalized to prevent floating point underflow in the case of very
// large trees"): per-pattern scale counters multiply a CLV by 2^256 whenever
// its largest entry falls below 2^-256; log-likelihoods subtract the
// accumulated scalings.
//
// Kernel layer (see DESIGN.md "SIMD kernel layer"):
//   - CLVs, tip indicators and edge coefficients live in pattern-plane SoA
//     layout ([category][state][padded pattern]) in 64-byte-aligned arenas,
//     and the hot loops run through a SIMD backend selected at runtime
//     (scalar / SSE2 / AVX2 / AVX-512, bit-identical results —
//     kernels.hpp); the engine captures a dispatch table at construction
//     via kernel_table_for_patterns(), which applies the AVX-512 downclock
//     heuristic to the alignment's pattern count;
//   - transition matrices are served by a TransitionCache keyed by the
//     effective length t * rate, invalidated by epoch on set_model();
//   - the hot path is allocation-free: edge captures and Newton evaluations
//     run out of engine-owned scratch arenas sized once at construction;
//   - edge evaluation works in the eigenbasis of Q ("sumtable" trick):
//     per (category, pattern) the engine stores 4 projected coefficients
//     c_k, and lnL(t) needs only sum_k c_k exp(lambda_k rate t) per site.
#pragma once

#include <cstdint>
#include <vector>

#include "likelihood/kernels.hpp"
#include "likelihood/transition_cache.hpp"
#include "model/rates.hpp"
#include "model/submodel.hpp"
#include "seq/alignment.hpp"
#include "tree/tree.hpp"
#include "util/aligned.hpp"

namespace fdml {

/// Hot-path instrumentation, cheap enough to stay always-on. Snapshot via
/// LikelihoodEngine::counters(); benchmarks report these so BENCH_*.json
/// can track cache effectiveness alongside throughput.
struct KernelCounters {
  std::uint64_t transition_hits = 0;    ///< TransitionCache hits
  std::uint64_t transition_misses = 0;  ///< TransitionCache misses (rebuilds)
  /// Live same-epoch entries displaced by a conflicting fill (set-conflict
  /// thrash; should stay near zero during smoothing).
  std::uint64_t transition_evictions = 0;
  std::uint64_t edge_captures = 0;      ///< edge_likelihood() calls
  /// EdgeLikelihood::evaluate plus EdgeLikelihood::derivatives calls.
  std::uint64_t edge_evaluations = 0;
  std::uint64_t clv_computations = 0;   ///< internal-CLV recomputations
  /// Patterns rescaled by the 2^-256 underflow guard (deep-tree activity;
  /// the backend-parity tests assert this matches across SIMD backends).
  std::uint64_t clv_rescales = 0;
  /// Bytes of scratch served from preallocated arenas (i.e. heap traffic
  /// the kernel layer avoided) since construction.
  std::uint64_t scratch_bytes_reused = 0;
  /// Nanoseconds spent inside the CLV / edge-capture / evaluate kernels.
  std::uint64_t kernel_ns = 0;
  /// SIMD backend label of the engine's kernel table ("scalar", "sse2",
  /// "avx2") — static string, never owned.
  const char* simd_backend = "scalar";

  double transition_hit_rate() const {
    const std::uint64_t total = transition_hits + transition_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(transition_hits) /
                            static_cast<double>(total);
  }
};

/// A captured one-dimensional view of the likelihood along a single edge:
/// lnL(t) and its first and second derivatives, cheap to evaluate
/// repeatedly during Newton iteration.
///
/// The view borrows engine-owned scratch (coefficients and site buffers),
/// so it is valid only until the next edge_likelihood() / attach() /
/// set_model() call on the same engine; evaluate() and derivatives()
/// allocate nothing. Exactly one EdgeLikelihood per engine is live at a
/// time — the optimizer's capture-then-iterate pattern.
class EdgeLikelihood {
 public:
  /// Log-likelihood at branch length t. The only path that takes logs.
  double evaluate(double t) const;
  /// d lnL/dt and d^2 lnL/dt^2 at branch length t, without lnL itself —
  /// all a Newton step reads.
  EdgeDerivatives derivatives(double t) const;

 private:
  friend class LikelihoodEngine;
  friend class BatchEdgeEvaluator;  // builds per-edge views over batch planes

  struct Workspace;

  const SubstModel* model_ = nullptr;
  const RateModel* rates_ = nullptr;
  TransitionCache* cache_ = nullptr;
  Workspace* ws_ = nullptr;           // engine-owned scratch arena
  KernelCounters* counters_ = nullptr;
  std::size_t num_patterns_ = 0;
  double scale_offset_ = 0.0;  // log-scale corrections, t-independent
};

/// Engine-owned scratch the EdgeLikelihood view evaluates out of: eigen
/// coefficients written by edge_likelihood(), per-site accumulators reused
/// by every evaluate()/derivatives() call. Pointers alias engine arenas
/// sized once.
struct EdgeLikelihood::Workspace {
  const double* coeff = nullptr;  // [cat][4][padded] eigen coefficient planes
  const double* lam = nullptr;    // [cat][4] = lambda_k * rate_cat
  const double* weights = nullptr;  // [padded] pattern weights, zero tail
  double* site = nullptr;         // [padded] accumulators
  double* site_d1 = nullptr;      // s' of the categories before the last
  double* site_d2 = nullptr;      // s'' of the categories before the last
  std::size_t padded = 0;         // padded pattern extent of the planes
  const KernelTable* kernels = nullptr;  // engine's SIMD dispatch table
};

class LikelihoodEngine {
 public:
  /// `data` is captured by reference and must outlive the engine (pattern
  /// tables are large and shared across the evaluators of a run); the model
  /// and rate model are small and copied in. The SIMD backend is resolved
  /// here (simd::active_backend()) and fixed for the engine's lifetime.
  LikelihoodEngine(const PatternAlignment& data, SubstModel model,
                   RateModel rates);

  // Scratch arenas and the transition cache are engine-local; views returned
  // by edge_likelihood() point into them, so engines do not copy or move.
  LikelihoodEngine(const LikelihoodEngine&) = delete;
  LikelihoodEngine& operator=(const LikelihoodEngine&) = delete;

  /// Binds the engine to a tree and invalidates all cached CLVs. The tree
  /// must outlive the binding. Node ids index CLV storage, so the tree must
  /// come from the same taxon namespace as the alignment (tip k = row k).
  void attach(const Tree& tree);
  const Tree* tree() const { return tree_; }

  /// Log-likelihood of the attached tree (evaluated across an arbitrary
  /// edge; all edges give the same value).
  double log_likelihood();

  /// Log-likelihood evaluated across edge (u, v) at its current length.
  double log_likelihood_edge(int u, int v);

  /// Captures the 1-D likelihood function along edge (u, v) for branch
  /// length optimization. Invalidates any previously returned view.
  EdgeLikelihood edge_likelihood(int u, int v);

  /// Invalidate every cached CLV (topology changed).
  void invalidate_all();

  /// Invalidates the three directed CLVs of one node. Used around scoped
  /// tree edits (taxon insertion trials): a node id drawn from the tree's
  /// free list may still carry validity flags from an earlier occupant.
  void invalidate_node(int node);

  /// Snapshot / restore of the CLV validity flags (values are untouched).
  /// A scoped insertion trial saves the flags, mutates the tree, lets the
  /// optimizer invalidate freely, then restores — the base tree's cached
  /// CLVs come back verbatim because an insertion trial only ever *writes*
  /// CLVs of the junction node (fresh id) and only *reads* directions
  /// pointing toward the junction, which the base tree computed already.
  void save_clv_validity(std::vector<char>& out) const;
  void restore_clv_validity(const std::vector<char>& saved);

  /// The length of edge (u, v) was committed; invalidate the directed CLVs
  /// that depend on it (those pointing away from the edge).
  void on_length_changed(int u, int v);

  /// Replaces the substitution model (e.g. a parameter-estimation step).
  /// Bumps the transition-cache epoch — the cache-invalidation contract:
  /// cached P(t) entries are valid per model epoch exactly as cached CLVs
  /// are valid per committed branch length (on_length_changed) — and
  /// invalidates every CLV.
  void set_model(SubstModel model);

  /// Per-site log-likelihoods (maps patterns back to sites).
  std::vector<double> site_log_likelihoods();
  /// Allocation-lean overload: writes into `out` (resized to num_sites),
  /// accumulating through engine scratch instead of fresh vectors. Repeated
  /// callers (bootstrap, per-site diagnostics) should reuse one `out`.
  /// Clobbers the same scratch as EdgeLikelihood views (see above).
  void site_log_likelihoods(std::vector<double>& out);

  /// Number of internal-CLV recomputations since attach (perf counter; used
  /// by the FLOP/byte benchmark and by tests asserting cache behaviour).
  std::uint64_t clv_computations() const { return counters_.clv_computations; }

  const PatternAlignment& data() const { return data_; }
  const SubstModel& model() const { return model_; }
  const RateModel& rate_model() const { return rates_; }

  /// Approximate floating-point operations performed since construction
  /// (kernel inner loops only; used to reproduce the paper's
  /// compute-per-byte claim).
  std::uint64_t flops() const { return flops_; }

  /// Snapshot of the kernel instrumentation (includes cache hit/miss and
  /// the SIMD backend label).
  KernelCounters counters() const;
  TransitionCache& transition_cache() { return cache_; }
  /// The SIMD kernel table this engine dispatches through (fixed at
  /// construction from kernel_table_for_patterns(num_patterns)).
  const KernelTable& kernels() const { return *kernels_; }

 private:
  struct Clv {
    AlignedVector<double> values;     // [cat][state][padded] SoA planes
    std::vector<std::int32_t> scale;  // per pattern (padded extent)
    /// Some pattern of `scale` is nonzero: a child was flagged or the
    /// combine rescaled. Unflagged scales are all zero, so readers treat
    /// them as absent (null) and skip the per-pattern offset work.
    bool scaled = false;
    bool valid = false;
  };

  // Directed-edge key: (node u, adjacency slot of v in u).
  std::size_t key(int node, int slot) const {
    return static_cast<std::size_t>(node) * 3 + static_cast<std::size_t>(slot);
  }

  /// Ensures CLV(u -> v) is computed; returns it. `slot` = slot of v in u.
  const Clv& ensure_clv(int u, int slot);
  void compute_internal_clv(int u, int slot);
  void invalidate_away(int node, int toward);

  /// Core of compute_internal_clv: combines two children into caller
  /// storage. `back_slots[c]` names the directed CLV of child c that faces
  /// the (possibly virtual) parent — CLV(children[c] -> parent); ignored
  /// for tip children. `lengths[c]` is the child-to-parent branch length.
  /// BatchEdgeEvaluator uses this to compute the CLV a junction node
  /// *would* have on each candidate insertion edge, without mutating the
  /// tree — bit-identical to what compute_internal_clv would produce after
  /// the insertion, because it is the same code. Returns the scale flag of
  /// the result (see Clv::scaled).
  bool combine_children(const int children[2], const int back_slots[2],
                        const double lengths[2], double* out_values,
                        std::int32_t* out_scale);

  /// Scale counters of `clv` for readers that honor the flag: null when no
  /// pattern was ever rescaled.
  static const std::int32_t* scale_of(const Clv& clv) {
    return clv.scaled ? clv.scale.data() : nullptr;
  }

  /// A view over `ws` (engine or batch coefficient planes) between operands
  /// with scale counters a_scale / b_scale (null = none).
  EdgeLikelihood make_view(EdgeLikelihood::Workspace* ws,
                           const std::int32_t* a_scale,
                           const std::int32_t* b_scale);

  /// Tip CLVs have no category dimension and never need scaling; expands a
  /// base code into indicator likelihood planes (and keeps the raw codes
  /// for the table-driven tip kernels).
  void build_tip_clvs();

  /// Rebuilds the model-derived projection tables (pi-weighted right
  /// eigenvectors, per-category scaled eigenvalues).
  void rebuild_model_tables();

  /// Plane base of tip `node` / internal CLV category `cat`.
  const double* tip_planes(int node) const {
    return &tip_clvs_[static_cast<std::size_t>(node) * 4 * padded_];
  }

  friend class BatchEdgeEvaluator;  // shares arenas, CLV access, counters

  const PatternAlignment& data_;
  SubstModel model_;  // mutable via set_model()
  const RateModel rates_;
  const Tree* tree_ = nullptr;

  std::size_t num_patterns_;
  /// Pattern extent rounded up to kPatternPad: every SoA plane is this
  /// long, tails zero-filled (inert through every kernel).
  std::size_t padded_;
  std::size_t num_categories_;
  const KernelTable* kernels_;  // SIMD dispatch table (fixed at construction)

  AlignedVector<double> tip_clvs_;      // [tip][state][padded] SoA planes
  AlignedVector<double> weights_;       // [padded] pattern weights, zero tail
  std::vector<std::uint8_t> tip_codes_; // [tip][padded] 4-bit base masks
  std::vector<Clv> clvs_;               // indexed by key()
  std::uint64_t flops_ = 0;

  TransitionCache cache_;
  mutable KernelCounters counters_;

  // --- preallocated kernel scratch (sized once in the constructor) ---

  // Eigen-projection tables: pr_[k][i] = pi_i * right_[i][k] (so the edge
  // capture is two 4-dots per pattern), lam_[cat*4+k] = lambda_k * rate_cat.
  Mat4 pr_{};
  std::vector<double> lam_;

  // Per-category child transition matrices / transposed 16-code tip lookup
  // tables ([state][code]) used by the CLV kernels: [child][cat] each.
  std::vector<Mat4> clv_p_;
  AlignedVector<double> tip_tab_;

  // Edge-evaluation arenas handed out via EdgeLikelihood (edge_ws_ holds
  // the stable pointer view the returned EdgeLikelihood borrows).
  AlignedVector<double> edge_coeff_;  // [cat][4][padded] coefficient planes
  AlignedVector<double> edge_site_;
  AlignedVector<double> edge_site_d1_;
  AlignedVector<double> edge_site_d2_;
  EdgeLikelihood::Workspace edge_ws_;
};

}  // namespace fdml
