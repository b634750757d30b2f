// Width-generic bodies of the likelihood kernels (see kernels.hpp).
//
// Included by exactly the per-backend translation units
// (kernels_{scalar,sse2,avx2,avx512}.cpp), each compiled with its ISA flags
// and -ffp-contract=off, and instantiated at that backend's lane width.
// Every multiply-add is Vec::madd, an unfused multiply-then-add. All
// arithmetic is lane-local and ordered identically at every width, so
// every backend produces bit-identical per-pattern results — the
// cross-backend parity tests rely on this.
//
// Perf notes baked into these bodies:
//   - The 16-entry P(t) rows (and pr/left eigen rows) are copied into local
//     arrays before each pattern loop. The originals live in engine arenas
//     that the compiler must assume alias the output planes, which forces a
//     reload of every broadcast per iteration; the locals are provably
//     private, so the loads pipeline (and hoist entirely at narrow widths).
//   - clv_rescale combines the child scale counters for the whole range in
//     a branch-free pass first, then patches the (rare) underflowing lanes
//     found by the vector max/movemask sweep — the previous form branched
//     per lane on the hot path for the benefit of the rare one.
//   - edge_derivatives' finishing pass sums its Newton terms itself, in
//     eight lanes, with one reciprocal per pattern: a separate pattern-order
//     sum over stored terms cost more than the kernel (DESIGN.md §5d).
#pragma once

#include <cstring>

#include "likelihood/kernels.hpp"

namespace fdml::detail {

template <int W>
struct Kernels {
  using V = simd::Vec<double, W>;

  /// Loads the four state lanes of one child at `pat`: tip children gather
  /// from the transposed 16-code table, internal children do a P-row dot
  /// with the child's CLV planes (same summation order as the scalar code
  /// this replaces: ((p0*a0 + p1*a1) + p2*a2) + p3*a3 per state).
  /// Widths that read the tip table code-major (tab4[code * 4 + s]) via one
  /// contiguous load per pattern + in-register transpose. Scalar keeps the
  /// direct state-major reads; AVX-512's per-state gather is already an
  /// in-register permutex2var LUT and beats the transpose form there.
  static constexpr bool kCodeMajorTip = (W == 2 || W == 4);

  template <bool Tip>
  static inline void load_child(const ClvOperand& c, std::size_t padded,
                                std::size_t pat, V out[4]) {
    if constexpr (Tip && kCodeMajorTip) {
      // c.tip_tab was re-laid code-major by combine() for these widths.
      V::gather4(c.tip_tab, c.codes + pat, out);
    } else if constexpr (Tip) {
      for (int s = 0; s < 4; ++s) {
        out[s] = V::gather(c.tip_tab + s * 16, c.codes + pat);
      }
    } else {
      const V a0 = V::load(c.planes + 0 * padded + pat);
      const V a1 = V::load(c.planes + 1 * padded + pat);
      const V a2 = V::load(c.planes + 2 * padded + pat);
      const V a3 = V::load(c.planes + 3 * padded + pat);
      for (int s = 0; s < 4; ++s) {
        const double* row = c.p + s * 4;
        V acc = V::broadcast(row[0]) * a0;
        acc = V::madd(V::broadcast(row[1]), a1, acc);
        acc = V::madd(V::broadcast(row[2]), a2, acc);
        acc = V::madd(V::broadcast(row[3]), a3, acc);
        out[s] = acc;
      }
    }
  }

  template <bool ATip, bool BTip>
  static void combine(std::size_t begin, std::size_t end, std::size_t padded,
                      const ClvOperand& a, const ClvOperand& b, double* out) {
    // Local P-matrix copies: see the aliasing note in the header comment.
    alignas(64) double pa[16];
    alignas(64) double pb[16];
    // Code-major tip-table copies for the transposed lookup (gather4);
    // built once per call, amortized over the pattern range.
    [[maybe_unused]] alignas(64) double ta4[64];
    [[maybe_unused]] alignas(64) double tb4[64];
    ClvOperand al = a;
    ClvOperand bl = b;
    if constexpr (!ATip) {
      std::memcpy(pa, a.p, sizeof(pa));
      al.p = pa;
    } else if constexpr (kCodeMajorTip) {
      for (int code = 0; code < 16; ++code) {
        for (int s = 0; s < 4; ++s) ta4[code * 4 + s] = a.tip_tab[s * 16 + code];
      }
      al.tip_tab = ta4;
    }
    if constexpr (!BTip) {
      std::memcpy(pb, b.p, sizeof(pb));
      bl.p = pb;
    } else if constexpr (kCodeMajorTip) {
      for (int code = 0; code < 16; ++code) {
        for (int s = 0; s < 4; ++s) tb4[code * 4 + s] = b.tip_tab[s * 16 + code];
      }
      bl.tip_tab = tb4;
    }
    for (std::size_t pat = begin; pat < end; pat += W) {
      V left[4];
      V right[4];
      load_child<ATip>(al, padded, pat, left);
      load_child<BTip>(bl, padded, pat, right);
      for (int s = 0; s < 4; ++s) {
        (left[s] * right[s]).store(out + s * padded + pat);
      }
    }
  }

  static void clv_combine(std::size_t begin, std::size_t end,
                          std::size_t padded, const ClvOperand& a,
                          const ClvOperand& b, double* out) {
    const bool a_tip = a.codes != nullptr;
    const bool b_tip = b.codes != nullptr;
    if (a_tip && b_tip) {
      combine<true, true>(begin, end, padded, a, b, out);
    } else if (a_tip) {
      combine<true, false>(begin, end, padded, a, b, out);
    } else if (b_tip) {
      combine<false, true>(begin, end, padded, a, b, out);
    } else {
      combine<false, false>(begin, end, padded, a, b, out);
    }
  }

  static std::uint64_t clv_rescale(std::size_t begin, std::size_t end,
                                   std::size_t padded,
                                   std::size_t num_categories, double* values,
                                   const std::int32_t* a_scale,
                                   const std::int32_t* b_scale,
                                   std::int32_t* out_scale) {
    // Pass 1: combined child scale counters for the whole range, branch-free
    // (the null-ness of each child is fixed per call, not per pattern).
    const std::size_t n = end - begin;
    if (a_scale != nullptr && b_scale != nullptr) {
      for (std::size_t p = begin; p < end; ++p) {
        out_scale[p] = a_scale[p] + b_scale[p];
      }
    } else if (a_scale != nullptr) {
      std::memcpy(out_scale + begin, a_scale + begin, n * sizeof(std::int32_t));
    } else if (b_scale != nullptr) {
      std::memcpy(out_scale + begin, b_scale + begin, n * sizeof(std::int32_t));
    } else {
      std::memset(out_scale + begin, 0, n * sizeof(std::int32_t));
    }

    // Pass 2: vector max over the planes; the movemask picks out the rare
    // underflowing lanes, which get the multiplicative rescale and a scale
    // increment. Underflowing lanes satisfy 0 < max < threshold — gap-only
    // and padded-tail patterns have max == 0 and are intentionally excluded.
    const V zero = V::zero();
    const V threshold = V::broadcast(kClvScaleThreshold);
    const std::size_t planes = num_categories * 4;
    std::uint64_t rescaled = 0;
    for (std::size_t pat = begin; pat < end; pat += W) {
      V max_entry = V::zero();
      for (std::size_t plane = 0; plane < planes; ++plane) {
        max_entry = V::max(max_entry, V::load(values + plane * padded + pat));
      }
      int mask = V::lt_mask(zero, max_entry) & V::lt_mask(max_entry, threshold);
      while (mask != 0) {
        const int lane = __builtin_ctz(static_cast<unsigned>(mask));
        mask &= mask - 1;
        const std::size_t p = pat + static_cast<std::size_t>(lane);
        for (std::size_t plane = 0; plane < planes; ++plane) {
          values[plane * padded + p] *= kClvScaleFactor;
        }
        ++out_scale[p];
        ++rescaled;
      }
    }
    return rescaled;
  }

  /// Eigen-coefficient capture for one category (see KernelTable). `pr`
  /// and `left` are copied into locals first so the broadcasts do not
  /// reload per iteration against the coeff stores.
  static void edge_capture(std::size_t padded, const double* a_planes,
                           const double* b_planes, const double* pr,
                           const double* left, double prob, double* coeff) {
    alignas(64) double prl[16];
    alignas(64) double lfl[16];
    std::memcpy(prl, pr, sizeof(prl));
    std::memcpy(lfl, left, sizeof(lfl));
    const V prob_v = V::broadcast(prob);
    for (std::size_t pat = 0; pat < padded; pat += W) {
      const V a0 = V::load(a_planes + 0 * padded + pat);
      const V a1 = V::load(a_planes + 1 * padded + pat);
      const V a2 = V::load(a_planes + 2 * padded + pat);
      const V a3 = V::load(a_planes + 3 * padded + pat);
      const V b0 = V::load(b_planes + 0 * padded + pat);
      const V b1 = V::load(b_planes + 1 * padded + pat);
      const V b2 = V::load(b_planes + 2 * padded + pat);
      const V b3 = V::load(b_planes + 3 * padded + pat);
      for (int k = 0; k < 4; ++k) {
        const double* pk = prl + k * 4;
        V u = V::broadcast(pk[0]) * a0;
        u = V::madd(V::broadcast(pk[1]), a1, u);
        u = V::madd(V::broadcast(pk[2]), a2, u);
        u = V::madd(V::broadcast(pk[3]), a3, u);
        u = prob_v * u;
        const double* lk = lfl + k * 4;
        V v = V::broadcast(lk[0]) * b0;
        v = V::madd(V::broadcast(lk[1]), b1, v);
        v = V::madd(V::broadcast(lk[2]), b2, v);
        v = V::madd(V::broadcast(lk[3]), b3, v);
        (u * v).store(coeff + static_cast<std::size_t>(k) * padded + pat);
      }
    }
  }

  template <bool Accumulate>
  static void evaluate(std::size_t padded, const double* coeff,
                       const double* e, double* site) {
    const V e0 = V::broadcast(e[0]), e1 = V::broadcast(e[1]),
            e2 = V::broadcast(e[2]), e3 = V::broadcast(e[3]);
    for (std::size_t pat = 0; pat < padded; pat += W) {
      V s = V::load(coeff + 0 * padded + pat) * e0;
      s = V::madd(V::load(coeff + 1 * padded + pat), e1, s);
      s = V::madd(V::load(coeff + 2 * padded + pat), e2, s);
      s = V::madd(V::load(coeff + 3 * padded + pat), e3, s);
      if constexpr (Accumulate) s = V::load(site + pat) + s;
      s.store(site + pat);
    }
  }

  static void edge_evaluate(std::size_t padded, const double* coeff,
                            const double* e, bool accumulate, double* site) {
    if (accumulate) {
      evaluate<true>(padded, coeff, e, site);
    } else {
      evaluate<false>(padded, coeff, e, site);
    }
  }

  /// ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)): the fixed combine
  /// of edge_derivatives' eight lane sums.
  static double combine_lanes(const double* l) {
    static_assert(kPatternPad == 8, "edge_derivatives sums in eight lanes");
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  }

  template <bool Accumulate, bool Finish>
  static EdgeDerivatives derivatives(std::size_t padded, const double* coeff,
                                     const double* e, const double* lam,
                                     const double* weights, double* site,
                                     double* site_d1, double* site_d2) {
    const V e0 = V::broadcast(e[0]), e1 = V::broadcast(e[1]),
            e2 = V::broadcast(e[2]), e3 = V::broadcast(e[3]);
    // Derivative factors per eigenvalue: d/dt exp(lam_k t) = lam_k * exp,
    // computed in scalar once per category.
    const double l0s = lam[0] * e[0], l1s = lam[1] * e[1], l2s = lam[2] * e[2],
                 l3s = lam[3] * e[3];
    const V l0 = V::broadcast(l0s), l1 = V::broadcast(l1s),
            l2 = V::broadcast(l2s), l3 = V::broadcast(l3s);
    const V q0 = V::broadcast(lam[0] * l0s), q1 = V::broadcast(lam[1] * l1s),
            q2 = V::broadcast(lam[2] * l2s), q3 = V::broadcast(lam[3] * l3s);
    // The finishing pass's eight lane sums: in each block of kPatternPad
    // patterns, vector i covers lanes [i W, (i + 1) W). Each sum is updated
    // once per block, so no add waits on the one before it, even where a
    // narrow width keeps the sums in memory.
    constexpr int kVecs = static_cast<int>(kPatternPad) / W;
    V sum_d1[kVecs];
    V sum_d2[kVecs];
    for (int i = 0; i < kVecs; ++i) sum_d1[i] = sum_d2[i] = V::zero();
    const V one = V::broadcast(1.0);
    for (std::size_t block = 0; block < padded; block += kPatternPad) {
      for (int i = 0; i < kVecs; ++i) {
        const std::size_t pat = block + static_cast<std::size_t>(i * W);
        const V c0 = V::load(coeff + 0 * padded + pat);
        const V c1 = V::load(coeff + 1 * padded + pat);
        const V c2 = V::load(coeff + 2 * padded + pat);
        const V c3 = V::load(coeff + 3 * padded + pat);
        V s = c0 * e0;
        s = V::madd(c1, e1, s);
        s = V::madd(c2, e2, s);
        s = V::madd(c3, e3, s);
        V g = c0 * l0;
        g = V::madd(c1, l1, g);
        g = V::madd(c2, l2, g);
        g = V::madd(c3, l3, g);
        V h = c0 * q0;
        h = V::madd(c1, q1, h);
        h = V::madd(c2, q2, h);
        h = V::madd(c3, q3, h);
        if constexpr (Accumulate) {
          s = V::load(site + pat) + s;
          g = V::load(site_d1 + pat) + g;
          h = V::load(site_d2 + pat) + h;
        }
        if constexpr (Finish) {
          // Element-wise IEEE ops, unfused and in the same order at every
          // width. Where s = 0 the reciprocal is inf and the terms NaN;
          // the mask turns them into +0.0.
          const V w = V::load(weights + pat);
          const V r = one / s;
          const V r1 = g * r;
          sum_d1[i] = sum_d1[i] + V::where_positive(s, w * r1);
          sum_d2[i] = sum_d2[i] + V::where_positive(s, w * (h * r - r1 * r1));
        } else {
          s.store(site + pat);
          g.store(site_d1 + pat);
          h.store(site_d2 + pat);
        }
      }
    }
    if constexpr (Finish) {
      alignas(64) double lanes_d1[kPatternPad];
      alignas(64) double lanes_d2[kPatternPad];
      for (int i = 0; i < kVecs; ++i) {
        sum_d1[i].store(lanes_d1 + i * W);
        sum_d2[i].store(lanes_d2 + i * W);
      }
      return {combine_lanes(lanes_d1), combine_lanes(lanes_d2)};
    }
    return {};
  }

  static EdgeDerivatives edge_derivatives(std::size_t padded,
                                          const double* coeff, const double* e,
                                          const double* lam, bool accumulate,
                                          const double* weights, double* site,
                                          double* site_d1, double* site_d2) {
    if (weights != nullptr) {
      if (accumulate) {
        return derivatives<true, true>(padded, coeff, e, lam, weights, site,
                                       site_d1, site_d2);
      }
      return derivatives<false, true>(padded, coeff, e, lam, weights, site,
                                      site_d1, site_d2);
    }
    if (accumulate) {
      return derivatives<true, false>(padded, coeff, e, lam, weights, site,
                                      site_d1, site_d2);
    }
    return derivatives<false, false>(padded, coeff, e, lam, weights, site,
                                     site_d1, site_d2);
  }
};

template <int W>
KernelTable make_kernel_table(const char* name, simd::Backend backend) {
  KernelTable table;
  table.name = name;
  table.backend = backend;
  table.width = W;
  table.clv_combine = &Kernels<W>::clv_combine;
  table.clv_rescale = &Kernels<W>::clv_rescale;
  table.edge_capture = &Kernels<W>::edge_capture;
  table.edge_evaluate = &Kernels<W>::edge_evaluate;
  table.edge_derivatives = &Kernels<W>::edge_derivatives;
  return table;
}

}  // namespace fdml::detail
