// Width-generic SIMD vector abstraction and backend selection.
//
// `Vec<double, W>` wraps W-lane double arithmetic behind one interface so a
// kernel written once against it compiles to scalar code (W = 1), SSE2
// (W = 2), AVX2 (W = 4) or AVX-512 (W = 8) depending on the translation
// unit's target flags. The per-backend kernel TUs
// (src/likelihood/kernels_*.cpp) instantiate the shared kernel bodies at
// their width; everything else in the tree stays ISA-agnostic and picks an
// implementation through the runtime dispatch table below.
//
// Determinism contract: kernels use madd() — an UNFUSED multiply-then-add —
// never hardware FMA, and the kernel TUs are compiled with
// -ffp-contract=off. Each pattern's arithmetic is lane-local and performed
// in the same order at every width, so all backends produce bit-identical
// per-pattern results (the backend-parity test asserts a 2-ulp bound but
// exact equality is the design point). A backend may only change *which*
// instructions run, never the answer.
//
// Backend state: active_backend() starts at the widest compiled backend the
// CPU supports (CPUID probe), overridable by the FDML_SIMD environment
// variable or set_backend("scalar|sse2|avx2|avx512|auto"). Compile-time
// availability is governed by the FDML_SIMD CMake option, which defines
// FDML_HAVE_SSE2 / FDML_HAVE_AVX2 / FDML_HAVE_AVX512 project-wide and adds
// -msse2 / -mavx2 / -mavx512f… to the matching kernel TUs only — the rest
// of the build keeps the default architecture so a binary built with
// FDML_SIMD=auto still runs (on the scalar backend) on a CPU without AVX2.
//
// Every engine runs the active backend at every pattern count: on a 4-core
// AVX-512 host, AVX-512 beat AVX2 on alignments of 53, 125 and 192
// patterns, so no pattern count trades vector width for clock speed.
#pragma once

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX__) || defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace fdml::simd {

enum class Backend { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

/// Lane width of a backend (doubles per vector).
constexpr int width(Backend b) {
  return b == Backend::kAvx512
             ? 8
             : (b == Backend::kAvx2 ? 4 : (b == Backend::kSse2 ? 2 : 1));
}

const char* backend_name(Backend b);

/// Backends this binary was built with (FDML_SIMD), scalar first.
std::vector<Backend> compiled_backends();

/// True when the running CPU can execute `b` (CPUID probe; scalar: always).
bool cpu_supports(Backend b);

/// The backend new LikelihoodEngines will use. Resolution order: an earlier
/// set_backend() call, else the FDML_SIMD environment variable, else the
/// widest compiled backend the CPU supports.
Backend active_backend();

/// Forces the active backend by name ("scalar", "sse2", "avx2", "avx512",
/// or "auto" to return to automatic selection). Returns false — and leaves
/// the state unchanged — if the name is unknown, the backend was not
/// compiled in, or the CPU lacks it. Affects engines constructed
/// afterwards; thread-safe only at init/test scope (not meant to be raced
/// against engine work).
bool set_backend(const std::string& name);

/// The kernels' numeric tier. There is one: exact, the bit-reproducible
/// arithmetic above. Run headers print it.
enum class Tier { kExact = 0 };

constexpr const char* tier_name(Tier) { return "exact"; }

constexpr Tier active_tier() { return Tier::kExact; }

// ---------------------------------------------------------------------------
// Vec<double, W>: the operations the likelihood kernels need, nothing more.
// The generic template is straight scalar code at any W (used at W = 1; it
// is also the reference semantics for the specializations below).
// ---------------------------------------------------------------------------

template <class T, int W>
struct Vec {
  T lane[W];

  static Vec load(const T* p) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = p[i];
    return v;
  }
  void store(T* p) const {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  static Vec broadcast(T x) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = x;
    return v;
  }
  static Vec zero() { return broadcast(T(0)); }
  /// v.lane[i] = table[idx[i]] — the 16-code tip-table lookup.
  static Vec gather(const T* table, const unsigned char* idx) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = table[idx[i]];
    return v;
  }
  /// Transposed tip lookup: one code-major table row (tab4[code * 4 + s])
  /// holds all four states of a code, so each pattern needs a single
  /// contiguous 4-wide load instead of four strided gathers; the
  /// specializations transpose the loaded rows back to state-major in
  /// registers. out[s].lane[i] = tab4[idx[i] * 4 + s].
  static void gather4(const T* tab4, const unsigned char* idx, Vec out[4]) {
    for (int s = 0; s < 4; ++s) {
      for (int i = 0; i < W; ++i) out[s].lane[i] = tab4[idx[i] * 4 + s];
    }
  }

  friend Vec operator+(Vec a, Vec b) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = a.lane[i] + b.lane[i];
    return v;
  }
  friend Vec operator-(Vec a, Vec b) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = a.lane[i] - b.lane[i];
    return v;
  }
  friend Vec operator*(Vec a, Vec b) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = a.lane[i] * b.lane[i];
    return v;
  }
  friend Vec operator/(Vec a, Vec b) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = a.lane[i] / b.lane[i];
    return v;
  }
  static Vec max(Vec a, Vec b) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    return v;
  }
  /// Unfused multiply-add: a * b + c evaluated as separate rounding steps
  /// (see the determinism contract above).
  static Vec madd(Vec a, Vec b, Vec c) { return a * b + c; }
  /// Bitmask of lanes where a < b (lane i -> bit i), the movemask idiom the
  /// vectorized underflow check uses.
  static int lt_mask(Vec a, Vec b) {
    int m = 0;
    for (int i = 0; i < W; ++i) m |= (a.lane[i] < b.lane[i]) ? (1 << i) : 0;
    return m;
  }
  /// x in the lanes where s > 0, +0.0 in the others (s = 0 or NaN): drops
  /// the per-pattern terms of zero-probability and padded-tail patterns.
  static Vec where_positive(Vec s, Vec x) {
    Vec v;
    for (int i = 0; i < W; ++i) v.lane[i] = s.lane[i] > T(0) ? x.lane[i] : T(0);
    return v;
  }
};

#if defined(__SSE2__)
template <>
struct Vec<double, 2> {
  __m128d v;

  static Vec load(const double* p) { return {_mm_load_pd(p)}; }
  void store(double* p) const { _mm_store_pd(p, v); }
  static Vec broadcast(double x) { return {_mm_set1_pd(x)}; }
  static Vec zero() { return {_mm_setzero_pd()}; }
  static Vec gather(const double* table, const unsigned char* idx) {
    return {_mm_set_pd(table[idx[1]], table[idx[0]])};
  }
  static void gather4(const double* tab4, const unsigned char* idx,
                      Vec out[4]) {
    // Two aligned 16-byte loads per pattern (the code's four states are
    // contiguous in the code-major table), then a 2x2 transpose per state
    // pair — fewer load-port trips than four per-state set_pd gathers.
    const __m128d p0_01 = _mm_load_pd(tab4 + idx[0] * 4);
    const __m128d p0_23 = _mm_load_pd(tab4 + idx[0] * 4 + 2);
    const __m128d p1_01 = _mm_load_pd(tab4 + idx[1] * 4);
    const __m128d p1_23 = _mm_load_pd(tab4 + idx[1] * 4 + 2);
    out[0] = {_mm_unpacklo_pd(p0_01, p1_01)};
    out[1] = {_mm_unpackhi_pd(p0_01, p1_01)};
    out[2] = {_mm_unpacklo_pd(p0_23, p1_23)};
    out[3] = {_mm_unpackhi_pd(p0_23, p1_23)};
  }

  friend Vec operator+(Vec a, Vec b) { return {_mm_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm_div_pd(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm_max_pd(a.v, b.v)}; }
  static Vec madd(Vec a, Vec b, Vec c) {
    return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
  }
  static int lt_mask(Vec a, Vec b) {
    return _mm_movemask_pd(_mm_cmplt_pd(a.v, b.v));
  }
  static Vec where_positive(Vec s, Vec x) {
    return {_mm_and_pd(_mm_cmpgt_pd(s.v, _mm_setzero_pd()), x.v)};
  }
};
#endif  // __SSE2__

#if defined(__AVX2__)
template <>
struct Vec<double, 4> {
  __m256d v;

  static Vec load(const double* p) { return {_mm256_load_pd(p)}; }
  void store(double* p) const { _mm256_store_pd(p, v); }
  static Vec broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static Vec zero() { return {_mm256_setzero_pd()}; }
  static Vec gather(const double* table, const unsigned char* idx) {
    // Four scalar loads assembled with set_pd, NOT _mm256_i32gather_pd: the
    // hardware gather serializes in the load ports and lost to SSE2's
    // set_pd pair on this kernel (clv_combine_tip 1.20x vs 1.29x in the
    // tracked bench). The 16-entry tip table is L1-resident, so plain
    // loads win.
    return {_mm256_set_pd(table[idx[3]], table[idx[2]], table[idx[1]],
                          table[idx[0]])};
  }
  static void gather4(const double* tab4, const unsigned char* idx,
                      Vec out[4]) {
    // One aligned 32-byte load per pattern pulls all four states of its
    // code at once (code-major table), and an in-register 4x4 transpose
    // turns the rows state-major: 4 loads + 8 shuffles for what the
    // per-state gather spends 16 loads + 12 inserts on. This is what
    // recovered clv_combine_tip on AVX2 (the tracked bench had it *slower*
    // than SSE2 with either hardware gathers or set_pd).
    const __m256d p0 = _mm256_load_pd(tab4 + idx[0] * 4);
    const __m256d p1 = _mm256_load_pd(tab4 + idx[1] * 4);
    const __m256d p2 = _mm256_load_pd(tab4 + idx[2] * 4);
    const __m256d p3 = _mm256_load_pd(tab4 + idx[3] * 4);
    const __m256d lo01 = _mm256_unpacklo_pd(p0, p1);  // s0: p0 p1 | s2: p0 p1
    const __m256d hi01 = _mm256_unpackhi_pd(p0, p1);  // s1: p0 p1 | s3: p0 p1
    const __m256d lo23 = _mm256_unpacklo_pd(p2, p3);
    const __m256d hi23 = _mm256_unpackhi_pd(p2, p3);
    out[0] = {_mm256_permute2f128_pd(lo01, lo23, 0x20)};
    out[1] = {_mm256_permute2f128_pd(hi01, hi23, 0x20)};
    out[2] = {_mm256_permute2f128_pd(lo01, lo23, 0x31)};
    out[3] = {_mm256_permute2f128_pd(hi01, hi23, 0x31)};
  }

  friend Vec operator+(Vec a, Vec b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm256_div_pd(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm256_max_pd(a.v, b.v)}; }
  static Vec madd(Vec a, Vec b, Vec c) {
    // Intentionally mul + add, not _mm256_fmadd_pd: fused rounding would
    // break cross-backend bit equality.
    return {_mm256_add_pd(_mm256_mul_pd(a.v, b.v), c.v)};
  }
  static int lt_mask(Vec a, Vec b) {
    return _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ));
  }
  static Vec where_positive(Vec s, Vec x) {
    return {_mm256_and_pd(_mm256_cmp_pd(s.v, _mm256_setzero_pd(), _CMP_GT_OQ),
                          x.v)};
  }
};
#endif  // __AVX2__

#if defined(__AVX512F__)
template <>
struct Vec<double, 8> {
  __m512d v;

  static Vec load(const double* p) { return {_mm512_load_pd(p)}; }
  void store(double* p) const { _mm512_store_pd(p, v); }
  static Vec broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static Vec zero() { return {_mm512_setzero_pd()}; }
  static Vec gather(const double* table, const unsigned char* idx) {
    // The tip table row is exactly 16 doubles, which fits in two zmm
    // registers: load both halves and select with a single two-source
    // permute instead of a hardware gather (same rationale as the AVX2
    // specialization — the table is L1-resident and vpermi2pd is cheap).
    const __m512d lo = _mm512_loadu_pd(table);
    const __m512d hi = _mm512_loadu_pd(table + 8);
    std::uint64_t packed;
    std::memcpy(&packed, idx, 8);
    // maskz_cvtepu8_epi64 rather than the plain form: the unmasked
    // intrinsic pads with _mm512_undefined_epi32(), whose `__Y = __Y`
    // body trips GCC's -Wmaybe-uninitialized at every inlined use.
    const __m512i sel = _mm512_maskz_cvtepu8_epi64(
        static_cast<__mmask8>(-1),
        _mm_cvtsi64_si128(static_cast<long long>(packed)));
    return {_mm512_permutex2var_pd(lo, sel, hi)};
  }

  friend Vec operator+(Vec a, Vec b) { return {_mm512_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) { return {_mm512_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) { return {_mm512_div_pd(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) {
    // maskz form for the same -Wmaybe-uninitialized reason as gather's
    // cvtepu8 (the plain _mm512_max_pd pads with undefined).
    return {_mm512_maskz_max_pd(static_cast<__mmask8>(-1), a.v, b.v)};
  }
  static Vec madd(Vec a, Vec b, Vec c) {
    // Separate mul + add, same as every other backend. AVX-512 has no
    // non-fused 512-bit multiply-add, so this is two instructions.
    return {_mm512_add_pd(_mm512_mul_pd(a.v, b.v), c.v)};
  }
  static int lt_mask(Vec a, Vec b) {
    return static_cast<int>(_mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ));
  }
  static Vec where_positive(Vec s, Vec x) {
    return {_mm512_maskz_mov_pd(
        _mm512_cmp_pd_mask(s.v, _mm512_setzero_pd(), _CMP_GT_OQ), x.v)};
  }
};
#endif  // __AVX512F__

}  // namespace fdml::simd
