// SIMD kernel layer under the likelihood engine.
//
// The hot loops of Felsenstein pruning — internal-CLV combine, tip
// lookup-table combine, eigen-coefficient edge capture, and the per-pattern
// dots of EdgeLikelihood::evaluate and ::derivatives — are independent
// across site patterns, so the engine stores CLVs and edge coefficients as
// pattern-plane SoA:
//
//   [category][state][pattern]   (pattern extent padded to kPatternPad)
//
// instead of the former [category][pattern][state] AoS. A kernel then reads
// four *planes* with contiguous vector loads and does purely vertical
// arithmetic (no shuffles); the per-pattern underflow check becomes a
// vector max over planes plus a movemask.
//
// Backends are function-pointer tables. Each table is produced by one
// translation unit compiled for its ISA (kernels_scalar.cpp at W = 1,
// kernels_sse2.cpp at W = 2 with -msse2, kernels_avx2.cpp at W = 4 with
// -mavx2, kernels_avx512.cpp at W = 8 with -mavx512f/dq) from the same
// width-generic bodies in kernels_body.hpp, so the math is written exactly
// once. active_kernel_table() resolves simd::active_backend() (runtime
// CPUID + the FDML_SIMD override) to a table; the engine captures the table
// at construction.
//
// Padded-tail contract: callers zero-fill plane tails (patterns in
// [num_patterns, padded)). Kernels process full padded ranges; zero inputs
// produce zero outputs, never trigger rescaling (the check requires a
// strictly positive maximum) and add nothing to edge_derivatives' sums (a
// term counts only where s > 0), so tail lanes are inert by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/simd.hpp"

namespace fdml {

/// Pattern-plane padding in doubles. A multiple of every backend width and
/// a full cache line, so plane starts stay 64-byte aligned for any W.
inline constexpr std::size_t kPatternPad = 8;

/// Patterns per tile of the blocked CLV sweep: one block of every
/// category's output plus the operand blocks stays L1-resident. Must be a
/// multiple of kPatternPad so tile boundaries keep alignment.
inline constexpr std::size_t kPatternBlock = 64;
static_assert(kPatternBlock % kPatternPad == 0);

/// Underflow guard (shared by the kernels and the engine): rescale a
/// pattern by 2^256 whenever its largest CLV entry falls below 2^-256.
inline constexpr double kClvScaleThreshold = 0x1.0p-256;
inline constexpr double kClvScaleFactor = 0x1.0p+256;
/// One rescale step in log space: log(kClvScaleFactor) = 256 ln 2.
/// Log-likelihood paths subtract scale_count * kLogScaleStep.
inline constexpr double kLogScaleStep = 256.0 * 0.6931471805599453;

/// One child of a CLV combine, category-resolved. Exactly one of
/// {codes+tip_tab, p} is consulted: a tip child is combined through its
/// 16-code lookup table, an internal child through a P(t)-row dot with its
/// CLV planes.
struct ClvOperand {
  const double* planes = nullptr;    ///< [4][padded] SoA planes
  const std::uint8_t* codes = nullptr;  ///< per-pattern 4-bit codes (tip only)
  const double* p = nullptr;         ///< 16 row-major P(t) entries (internal)
  const double* tip_tab = nullptr;   ///< [4][16] transposed code table (tip)
};

/// First and second derivative of lnL along one edge at one branch length:
/// what edge_derivatives' finishing pass returns.
struct EdgeDerivatives {
  double d1 = 0.0;
  double d2 = 0.0;
};

struct KernelTable {
  const char* name;        ///< backend label ("scalar", "sse2", "avx2", "avx512")
  simd::Backend backend;
  int width;               ///< lanes per vector

  /// CLV combine over patterns [begin, end): out[s][pat] = left_s(pat) *
  /// right_s(pat) with each factor a tip-table lookup or a P-row dot.
  /// begin/end are multiples of kPatternPad (end may equal padded).
  void (*clv_combine)(std::size_t begin, std::size_t end, std::size_t padded,
                      const ClvOperand& a, const ClvOperand& b, double* out);

  /// Underflow pass over patterns [begin, end) of a whole CLV (planes at
  /// values + (cat * 4 + s) * padded): combines child scale counters,
  /// rescales underflowing patterns across all categories, writes
  /// out_scale[pat], and returns the number of patterns rescaled.
  std::uint64_t (*clv_rescale)(std::size_t begin, std::size_t end,
                               std::size_t padded, std::size_t num_categories,
                               double* values, const std::int32_t* a_scale,
                               const std::int32_t* b_scale,
                               std::int32_t* out_scale);

  /// Eigen-coefficient capture for one category:
  ///   coeff[k][pat] = (prob * dot4(pr row k, a[.][pat]))
  ///                 * dot4(left row k, b[.][pat])
  /// pr/left are 16 row-major doubles; a/b/coeff are [4][padded] planes.
  void (*edge_capture)(std::size_t padded, const double* a_planes,
                       const double* b_planes, const double* pr,
                       const double* left, double prob, double* coeff);

  /// Per-pattern 4-coefficient dot for one category, the lnL path
  /// (exp(lambda_k r t) is hoisted into e[] by the caller — the pattern loop
  /// is exp-free): site[pat] (+)= sum_k coeff[k][pat] * e[k].
  void (*edge_evaluate)(std::size_t padded, const double* coeff,
                        const double* e, bool accumulate, double* site);

  /// The Newton path for one category: s as in edge_evaluate, s' via
  /// lam[k] * e[k] and s'' via lam[k]^2 * e[k], each added to the site
  /// planes' values when `accumulate`. With `weights` null (every category
  /// but the last) the pass stores site = s, site_d1 = s', site_d2 = s''
  /// and returns zeros. On the last category the caller passes the padded
  /// pattern weights, and the pass stores nothing and returns d lnL/dt and
  /// d^2 lnL/dt^2 instead: with r = 1/s, pattern p's terms are w * (s' r)
  /// and w * (s'' r - (s' r)^2), masked to +0.0 where s <= 0 (zero-
  /// probability patterns and the zero tail). Each sum runs in eight fixed
  /// lanes, lane j taking the terms of patterns p = j (mod 8) in increasing
  /// order, and returns ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)).
  /// kPatternPad is 8, so every width does the same operations in the same
  /// order and the sums are bit-identical across exact backends.
  EdgeDerivatives (*edge_derivatives)(std::size_t padded, const double* coeff,
                                      const double* e, const double* lam,
                                      bool accumulate, const double* weights,
                                      double* site, double* site_d1,
                                      double* site_d2);
};

/// Table for one backend, or nullptr if it was not compiled in (no
/// fallback — use active_kernel_table() for resolving lookups).
const KernelTable* kernel_table(simd::Backend backend);

/// Table for simd::active_backend(): the one every engine captures at
/// construction, whatever its pattern count. An uncompiled backend falls
/// back to scalar (always compiled).
const KernelTable& active_kernel_table();

/// Every table compiled into this binary, scalar first: the bit-parity
/// set. Entries for backends the running CPU lacks are still returned
/// (callers gate on simd::cpu_supports before executing them).
std::vector<const KernelTable*> compiled_kernel_tables();

}  // namespace fdml
