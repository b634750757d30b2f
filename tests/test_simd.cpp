// Backend-parity tests for the SIMD kernel layer.
//
// The determinism contract (util/simd.hpp) says every backend performs the
// same unfused arithmetic in the same order per pattern, so scalar, SSE2,
// AVX2 and AVX-512 must agree not "approximately" but to within 2 ulps (and
// in practice bit-exactly). These tests drive every backend compiled into the
// binary — once at the KernelTable level on synthetic planes, and once
// end-to-end through LikelihoodEngine on randomized alignments with
// degenerate (gap-only) columns and rescaling-heavy deep trees — and
// compare against the scalar backend, which is always present.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "fdml.hpp"
#include "likelihood/kernels.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace {

using namespace fdml;

// Monotonic mapping of doubles onto uint64 so ulp distance is a subtraction.
std::uint64_t ordered_bits(double x) {
  const std::uint64_t b = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = 0x8000000000000000ull;
  return (b & sign) ? ~b : (b | sign);
}

std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  const std::uint64_t ka = ordered_bits(a);
  const std::uint64_t kb = ordered_bits(b);
  return ka > kb ? ka - kb : kb - ka;
}

#define EXPECT_ULP_EQ(a, b)                                               \
  EXPECT_LE(ulp_distance((a), (b)), 2u)                                   \
      << "values " << (a) << " vs " << (b)

// Restores automatic backend selection when the scope ends, even on
// assertion failure.
struct BackendGuard {
  ~BackendGuard() { simd::set_backend("auto"); }
};

std::vector<const KernelTable*> usable_vector_tables() {
  std::vector<const KernelTable*> tables;
  for (const KernelTable* t : compiled_kernel_tables()) {
    if (t->backend != simd::Backend::kScalar &&
        simd::cpu_supports(t->backend)) {
      tables.push_back(t);
    }
  }
  return tables;
}

TEST(Simd, AlignedVectorIsKernelAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<double> v(n, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % kKernelAlignment, 0u);
  }
}

TEST(Simd, BackendSelection) {
  BackendGuard guard;
  const auto compiled = simd::compiled_backends();
  ASSERT_FALSE(compiled.empty());
  EXPECT_EQ(compiled.front(), simd::Backend::kScalar);
  EXPECT_TRUE(simd::cpu_supports(simd::Backend::kScalar));

  EXPECT_TRUE(simd::set_backend("scalar"));
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  EXPECT_STREQ(active_kernel_table().name, "scalar");
  EXPECT_EQ(active_kernel_table().width, 1);

  EXPECT_FALSE(simd::set_backend("avx1024"));  // unknown name
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);  // unchanged

  // avx512 is a known name; selecting it succeeds exactly when the TU is
  // compiled in AND the CPU has avx512f+dq.
  const bool avx512_compiled =
      std::find(compiled.begin(), compiled.end(), simd::Backend::kAvx512) !=
      compiled.end();
  const bool avx512_usable =
      avx512_compiled && simd::cpu_supports(simd::Backend::kAvx512);
  EXPECT_EQ(simd::set_backend("avx512"), avx512_usable);
  if (avx512_usable) {
    EXPECT_EQ(simd::active_backend(), simd::Backend::kAvx512);
    EXPECT_STREQ(active_kernel_table().name, "avx512");
    EXPECT_EQ(active_kernel_table().width, 8);
  }

  EXPECT_TRUE(simd::set_backend("auto"));
  for (const KernelTable* t : compiled_kernel_tables()) {
    EXPECT_EQ(simd::width(t->backend), t->width);
    EXPECT_STREQ(simd::backend_name(t->backend), t->name);
  }
}

// ---------------------------------------------------------------------------
// KernelTable-level parity on synthetic planes
// ---------------------------------------------------------------------------

struct SyntheticPlanes {
  static constexpr std::size_t kPadded = 64;
  static constexpr std::size_t kPlane = 4 * kPadded;

  AlignedVector<double> a;
  AlignedVector<double> b;
  std::vector<std::uint8_t> codes_a, codes_b;
  Mat4 pa{}, pb{};
  double tab_a[64], tab_b[64];
  Mat4 pr{};
  const Mat4* left;
  double e[4], lam[4];

  SyntheticPlanes() {
    Rng rng(7);
    a.resize(kPlane);
    b.resize(kPlane);
    for (auto& x : a) x = rng.uniform(0.01, 1.0);
    for (auto& x : b) x = rng.uniform(0.01, 1.0);
    codes_a.resize(kPadded);
    codes_b.resize(kPadded);
    for (std::size_t p = 0; p < kPadded; ++p) {
      codes_a[p] = static_cast<std::uint8_t>(rng.range(1, 15));
      codes_b[p] = static_cast<std::uint8_t>(rng.range(1, 15));
    }
    const SubstModel model = SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.5);
    model.transition(0.07, pa);
    model.transition(0.23, pb);
    for (int s = 0; s < 4; ++s) {
      for (int code = 0; code < 16; ++code) {
        double ta = 0.0, tb = 0.0;
        for (int j = 0; j < 4; ++j) {
          if ((code >> j) & 1) {
            ta += pa[s][j];
            tb += pb[s][j];
          }
        }
        tab_a[s * 16 + code] = ta;
        tab_b[s * 16 + code] = tb;
      }
    }
    const Vec4& pi = model.frequencies();
    const Mat4& right = model.right_eigenvectors();
    left = &model.left_eigenvectors();
    for (int k = 0; k < 4; ++k) {
      for (int i = 0; i < 4; ++i) pr[k][i] = pi[i] * right[i][k];
      lam[k] = model.eigenvalues()[k];
      e[k] = std::exp(lam[k] * 0.17);
    }
    // The model object dies here; left would dangle. Copy it.
    left_copy = model.left_eigenvectors();
    left = &left_copy;
  }
  Mat4 left_copy{};
};

TEST(Simd, ClvCombineMatchesScalarBitExactly) {
  const SyntheticPlanes s;
  const KernelTable* scalar = kernel_table(simd::Backend::kScalar);
  ASSERT_NE(scalar, nullptr);

  // All four child-kind combinations: internal x internal, tip x internal,
  // internal x tip, tip x tip.
  for (int mode = 0; mode < 4; ++mode) {
    ClvOperand a, b;
    a.planes = s.a.data();
    b.planes = s.b.data();
    if (mode & 1) {
      a.codes = s.codes_a.data();
      a.tip_tab = s.tab_a;
    } else {
      a.p = &s.pa[0][0];
    }
    if (mode & 2) {
      b.codes = s.codes_b.data();
      b.tip_tab = s.tab_b;
    } else {
      b.p = &s.pb[0][0];
    }
    AlignedVector<double> ref(SyntheticPlanes::kPlane, -1.0);
    scalar->clv_combine(0, SyntheticPlanes::kPadded, SyntheticPlanes::kPadded,
                        a, b, ref.data());
    for (const KernelTable* table : usable_vector_tables()) {
      AlignedVector<double> out(SyntheticPlanes::kPlane, -2.0);
      table->clv_combine(0, SyntheticPlanes::kPadded,
                         SyntheticPlanes::kPadded, a, b, out.data());
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(ref[i], out[i])
            << table->name << " mode " << mode << " index " << i;
      }
    }
  }
}

TEST(Simd, ClvRescaleMatchesScalar) {
  constexpr std::size_t padded = 32;
  constexpr std::size_t cats = 2;
  // Patterns 3 and 10: genuinely underflowing. Pattern 17: exactly zero
  // (gap-only / padded-tail case) — must NOT be rescaled. Others: normal.
  AlignedVector<double> base(cats * 4 * padded);
  Rng rng(23);
  for (auto& x : base) x = rng.uniform(0.1, 1.0);
  for (std::size_t cat = 0; cat < cats; ++cat) {
    for (int st = 0; st < 4; ++st) {
      double* plane = base.data() + (cat * 4 + st) * padded;
      plane[3] = 1e-80;   // < 2^-256 ~ 1.16e-77
      plane[10] = 5e-79;
      plane[17] = 0.0;
    }
  }
  std::vector<std::int32_t> a_scale(padded, 0), b_scale(padded, 0);
  a_scale[1] = 2;
  b_scale[3] = 1;

  const KernelTable* scalar = kernel_table(simd::Backend::kScalar);
  AlignedVector<double> ref_values = base;
  std::vector<std::int32_t> ref_scale(padded, -1);
  const std::uint64_t ref_rescued =
      scalar->clv_rescale(0, padded, padded, cats, ref_values.data(),
                          a_scale.data(), b_scale.data(), ref_scale.data());
  EXPECT_EQ(ref_rescued, 2u);
  EXPECT_EQ(ref_scale[1], 2);   // child scales combined
  EXPECT_EQ(ref_scale[3], 2);   // 1 inherited + 1 new
  EXPECT_EQ(ref_scale[10], 1);
  EXPECT_EQ(ref_scale[17], 0);  // zero pattern untouched
  EXPECT_EQ(ref_values[3], 1e-80 * 0x1.0p+256);

  for (const KernelTable* table : usable_vector_tables()) {
    AlignedVector<double> values = base;
    std::vector<std::int32_t> scale(padded, -1);
    const std::uint64_t rescued =
        table->clv_rescale(0, padded, padded, cats, values.data(),
                           a_scale.data(), b_scale.data(), scale.data());
    EXPECT_EQ(rescued, ref_rescued) << table->name;
    for (std::size_t p = 0; p < padded; ++p) {
      ASSERT_EQ(scale[p], ref_scale[p]) << table->name << " pattern " << p;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(values[i], ref_values[i]) << table->name << " index " << i;
    }
  }
}

// The capture and lnL-path dots match scalar per pattern; the Newton path is
// checked against its documented contract (kernels.hpp) written out below as
// plain scalar code: a category before the last stores s, s' and s'' per
// pattern, and the last one returns the two sums of w * (s' r) and
// w * (s'' r - (s' r)^2), r = 1/s, kept only where s > 0, summed in lane
// p mod 8 and combined pairwise.
TEST(Simd, EdgeKernelsMatchScalarBitExactly) {
  constexpr std::size_t kPadded = SyntheticPlanes::kPadded;
  // Patterns [kPatterns, kPadded) are the zero tail (coefficients and
  // weights 0); kZeroPattern is a zero-probability pattern mid-plane (all
  // four coefficients 0) with weight 3, whose terms are NaN unless masked.
  constexpr std::size_t kPatterns = 61;
  constexpr std::size_t kZeroPattern = 29;
  const SyntheticPlanes s;
  const KernelTable* scalar = kernel_table(simd::Backend::kScalar);

  AlignedVector<double> ref_coeff(SyntheticPlanes::kPlane);
  scalar->edge_capture(kPadded, s.a.data(), s.b.data(), &s.pr[0][0],
                       &(*s.left)[0][0], 0.25, ref_coeff.data());
  AlignedVector<double> coeff = ref_coeff;
  AlignedVector<double> weights(kPadded, 0.0);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    weights[p] = static_cast<double>(1 + p % 5);
  }
  weights[kZeroPattern] = 3.0;
  for (std::size_t k = 0; k < 4; ++k) {
    coeff[k * kPadded + kZeroPattern] = 0.0;
    for (std::size_t p = kPatterns; p < kPadded; ++p) coeff[k * kPadded + p] = 0.0;
  }

  // lnL path over two categories (the same one twice).
  AlignedVector<double> ref_lnl_site(kPadded);
  scalar->edge_evaluate(kPadded, coeff.data(), s.e, /*accumulate=*/false,
                        ref_lnl_site.data());
  const AlignedVector<double> first_lnl_site = ref_lnl_site;
  scalar->edge_evaluate(kPadded, coeff.data(), s.e, /*accumulate=*/true,
                        ref_lnl_site.data());

  // Newton path, first category: s, s', s'' per pattern, sums zero.
  AlignedVector<double> ref_site(kPadded), ref_d1(kPadded), ref_d2(kPadded);
  const EdgeDerivatives none = scalar->edge_derivatives(
      kPadded, coeff.data(), s.e, s.lam, /*accumulate=*/false,
      /*weights=*/nullptr, ref_site.data(), ref_d1.data(), ref_d2.data());
  EXPECT_EQ(none.d1, 0.0);
  EXPECT_EQ(none.d2, 0.0);
  for (std::size_t p = 0; p < kPadded; ++p) {
    ASSERT_EQ(ref_site[p], first_lnl_site[p]) << "site " << p;
  }
  EXPECT_EQ(ref_site[kZeroPattern], 0.0);
  EXPECT_EQ(ref_site[kPadded - 1], 0.0);

  // The finishing pass from the contract, for a last category equal to the
  // first: accumulated s, s', s'' are the first pass's values doubled.
  double lanes_d1[8] = {};
  double lanes_d2[8] = {};
  for (std::size_t p = 0; p < kPadded; ++p) {
    const double sp = ref_site[p] + ref_site[p];
    const double g = ref_d1[p] + ref_d1[p];
    const double h = ref_d2[p] + ref_d2[p];
    const double r = 1.0 / sp;
    const double r1 = g * r;
    const double t1 = weights[p] * r1;
    const double t2 = weights[p] * (h * r - r1 * r1);
    lanes_d1[p % 8] += sp > 0.0 ? t1 : 0.0;
    lanes_d2[p % 8] += sp > 0.0 ? t2 : 0.0;
  }
  const auto combine = [](const double* l) {
    return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  };
  const double want_d1 = combine(lanes_d1);
  const double want_d2 = combine(lanes_d2);
  ASSERT_TRUE(std::isfinite(want_d1) && std::isfinite(want_d2));

  std::vector<const KernelTable*> tables{scalar};
  for (const KernelTable* table : usable_vector_tables()) tables.push_back(table);
  for (const KernelTable* table : tables) {
    AlignedVector<double> captured(SyntheticPlanes::kPlane);
    table->edge_capture(kPadded, s.a.data(), s.b.data(), &s.pr[0][0],
                        &(*s.left)[0][0], 0.25, captured.data());
    for (std::size_t i = 0; i < captured.size(); ++i) {
      ASSERT_EQ(ref_coeff[i], captured[i]) << table->name << " coeff " << i;
    }
    AlignedVector<double> lnl_site(kPadded);
    table->edge_evaluate(kPadded, coeff.data(), s.e, false, lnl_site.data());
    table->edge_evaluate(kPadded, coeff.data(), s.e, true, lnl_site.data());
    AlignedVector<double> site(kPadded), d1(kPadded), d2(kPadded);
    table->edge_derivatives(kPadded, coeff.data(), s.e, s.lam, false, nullptr,
                            site.data(), d1.data(), d2.data());
    for (std::size_t p = 0; p < kPadded; ++p) {
      ASSERT_EQ(ref_lnl_site[p], lnl_site[p]) << table->name << " site " << p;
      ASSERT_EQ(ref_site[p], site[p]) << table->name << " s " << p;
      ASSERT_EQ(ref_d1[p], d1[p]) << table->name << " s' " << p;
      ASSERT_EQ(ref_d2[p], d2[p]) << table->name << " s'' " << p;
    }
    const EdgeDerivatives got =
        table->edge_derivatives(kPadded, coeff.data(), s.e, s.lam, true,
                                weights.data(), site.data(), d1.data(),
                                d2.data());
    ASSERT_EQ(got.d1, want_d1) << table->name;
    ASSERT_EQ(got.d2, want_d2) << table->name;
    // The finishing pass stores nothing.
    for (std::size_t p = 0; p < kPadded; ++p) {
      ASSERT_EQ(ref_site[p], site[p]) << table->name << " s " << p;
      ASSERT_EQ(ref_d1[p], d1[p]) << table->name << " s' " << p;
      ASSERT_EQ(ref_d2[p], d2[p]) << table->name << " s'' " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level parity property test
// ---------------------------------------------------------------------------

// Random alignment with the pathologies that historically break layout
// changes: ambiguity codes from the simulator plus appended gap-only
// columns (every taxon kBaseUnknown — site likelihood exactly 1, pattern
// max never below threshold).
Alignment parity_alignment(int taxa, std::size_t sites, std::uint64_t seed,
                           Rng& tree_rng, Tree& tree_out) {
  tree_out = random_tree(taxa, tree_rng);
  Rng rng(seed);
  SimulateOptions options;
  options.num_sites = sites;
  Alignment sim =
      simulate_alignment(tree_out, default_taxon_names(taxa),
                         SubstModel::jc69(), RateModel::uniform(), options, rng);
  Alignment with_gaps;
  for (std::size_t t = 0; t < sim.num_taxa(); ++t) {
    std::basic_string<BaseCode> row = sim.row(t);
    row.push_back(kBaseUnknown);
    row.push_back(kBaseUnknown);
    with_gaps.add_sequence(sim.name(t), std::move(row));
  }
  return with_gaps;
}

struct ParityObservation {
  double lnl = 0.0;
  double edge_lnl = 0.0;
  double d1 = 0.0;
  double d2 = 0.0;
  std::vector<double> site_lnl;
  std::uint64_t clv_rescales = 0;
  std::string backend;
};

ParityObservation observe(const PatternAlignment& data, const SubstModel& model,
                          const RateModel& rates, const Tree& tree) {
  LikelihoodEngine engine(data, model, rates);
  engine.attach(tree);
  ParityObservation obs;
  obs.backend = engine.counters().simd_backend;
  obs.lnl = engine.log_likelihood();
  const auto [u, v] = tree.edges()[tree.edges().size() / 2];
  const EdgeLikelihood f = engine.edge_likelihood(u, v);
  obs.edge_lnl = f.evaluate(0.13);
  const EdgeDerivatives d = f.derivatives(0.13);
  obs.d1 = d.d1;
  obs.d2 = d.d2;
  engine.site_log_likelihoods(obs.site_lnl);
  obs.clv_rescales = engine.counters().clv_rescales;
  return obs;
}

TEST(Simd, EngineParityAcrossBackends) {
  BackendGuard guard;
  struct Case {
    int taxa;
    int categories;
    std::size_t sites;
    std::uint64_t seed;
  };
  const Case cases[] = {{50, 1, 120, 11}, {97, 2, 130, 12}, {150, 4, 90, 13}};

  for (const Case& c : cases) {
    Rng tree_rng(c.seed);
    Tree tree(c.taxa);
    const Alignment alignment =
        parity_alignment(c.taxa, c.sites, c.seed * 101, tree_rng, tree);
    const PatternAlignment data(alignment);
    const SubstModel model =
        SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
    const RateModel rates = c.categories == 1
                                ? RateModel::uniform()
                                : RateModel::discrete_gamma(0.7, c.categories);

    ASSERT_TRUE(simd::set_backend("scalar"));
    const ParityObservation ref = observe(data, model, rates, tree);
    EXPECT_EQ(ref.backend, "scalar");
    EXPECT_TRUE(std::isfinite(ref.lnl));

    for (const KernelTable* table : usable_vector_tables()) {
      ASSERT_TRUE(simd::set_backend(table->name));
      const ParityObservation obs = observe(data, model, rates, tree);
      EXPECT_EQ(obs.backend, table->name);
      EXPECT_ULP_EQ(obs.lnl, ref.lnl) << table->name << " taxa " << c.taxa;
      EXPECT_ULP_EQ(obs.edge_lnl, ref.edge_lnl) << table->name;
      EXPECT_ULP_EQ(obs.d1, ref.d1) << table->name;
      EXPECT_ULP_EQ(obs.d2, ref.d2) << table->name;
      EXPECT_EQ(obs.clv_rescales, ref.clv_rescales) << table->name;
      ASSERT_EQ(obs.site_lnl.size(), ref.site_lnl.size());
      for (std::size_t s = 0; s < ref.site_lnl.size(); ++s) {
        ASSERT_LE(ulp_distance(obs.site_lnl[s], ref.site_lnl[s]), 2u)
            << table->name << " site " << s;
      }
    }
  }
}

// Engines run the active backend at every pattern count: under automatic
// selection a small alignment gets the table a large one gets (on an
// AVX-512 host, avx512).
TEST(Simd, SmallAlignmentEngineRunsTheActiveBackend) {
  BackendGuard guard;
  ASSERT_TRUE(simd::set_backend("auto"));
  Rng tree_rng(53);
  Tree tree(8);
  const PatternAlignment data(parity_alignment(8, 60, 5300, tree_rng, tree));
  ASSERT_LT(data.num_patterns(), kPatternBlock);  // less than one tile
  const LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  EXPECT_EQ(&engine.kernels(), &active_kernel_table());
  EXPECT_STREQ(engine.kernels().name,
               simd::backend_name(simd::active_backend()));
}

TEST(Simd, DeepTreeRescalingParity) {
  BackendGuard guard;
  // Caterpillar deep enough that per-pattern rescaling must fire (CLV
  // magnitudes decay ~e^-1.1 per level here, so ~300 levels pushes them
  // well under 2^-256); the rescale path (movemask + per-lane fixup) must
  // agree across backends both in the values and in how often it fired.
  const int n = 300;
  Tree tree(n);
  tree.make_triplet(0, 1, 2, 0.4, 0.4, 0.4);
  for (int tip = 3; tip < n; ++tip) {
    tree.insert_tip(tip, tip - 1, tree.neighbor(tip - 1, 0), 0.4);
  }
  Rng rng(17);
  SimulateOptions options;
  options.num_sites = 40;
  const Alignment alignment =
      simulate_alignment(tree, default_taxon_names(n), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);

  ASSERT_TRUE(simd::set_backend("scalar"));
  const ParityObservation ref =
      observe(data, SubstModel::jc69(), RateModel::uniform(), tree);
  EXPECT_GT(ref.clv_rescales, 0u) << "tree not deep enough to exercise scaling";
  EXPECT_TRUE(std::isfinite(ref.lnl));

  for (const KernelTable* table : usable_vector_tables()) {
    ASSERT_TRUE(simd::set_backend(table->name));
    const ParityObservation obs =
        observe(data, SubstModel::jc69(), RateModel::uniform(), tree);
    EXPECT_ULP_EQ(obs.lnl, ref.lnl) << table->name;
    EXPECT_EQ(obs.clv_rescales, ref.clv_rescales) << table->name;
    for (std::size_t s = 0; s < ref.site_lnl.size(); ++s) {
      ASSERT_LE(ulp_distance(obs.site_lnl[s], ref.site_lnl[s]), 2u)
          << table->name << " site " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Insertion scoring against a fresh reference
// ---------------------------------------------------------------------------

std::vector<std::string> all_usable_backend_names() {
  std::vector<std::string> names{"scalar"};
  for (const KernelTable* t : usable_vector_tables()) names.push_back(t->name);
  return names;
}

// An insertion task is scored by splicing the focus tip into the round's
// shared base-tree context. On every backend its result must equal, bit
// for bit, a fresh engine on the parsed task tree that smooths the three
// attachment edges in canonical order and evaluates across (tip, junction):
// the shared base CLVs are exactly the ones the task's own tree produces.
TEST(Simd, InsertionResultMatchesFreshSmoothing) {
  BackendGuard guard;
  const int n = 16;
  Rng tree_rng(31);
  Tree full(n);
  const Alignment alignment = parity_alignment(n, 80, 3103, tree_rng, full);
  const PatternAlignment data(alignment);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::discrete_gamma(0.7, 2);
  const int focus = n - 1;
  Tree base = full;
  base.remove_tip(focus);
  std::vector<TreeTask> tasks;
  for (const auto& [u, v] : base.edges()) {
    Tree candidate = base;
    candidate.insert_tip(focus, u, v);
    TreeTask task;
    task.task_id = tasks.size();
    task.round_id = 1;
    task.newick = to_newick(candidate, data.names(), 17);
    task.focus_taxon = focus;
    tasks.push_back(std::move(task));
  }

  for (const std::string& backend : all_usable_backend_names()) {
    ASSERT_TRUE(simd::set_backend(backend));
    TaskEvaluator evaluator(data, model, rates);
    for (const TreeTask& task : tasks) {
      const TaskResult result = evaluator.evaluate(task);

      Tree tree = tree_from_newick(task.newick, data.names());
      LikelihoodEngine engine(data, model, rates);
      engine.attach(tree);
      BranchOptimizer optimizer(engine);
      const int junction = tree.neighbor(focus, 0);
      std::vector<int> others;
      for (int s = 0; s < 3; ++s) {
        const int nbr = tree.neighbor(junction, s);
        if (nbr != focus) others.push_back(nbr);
      }
      ASSERT_EQ(others.size(), 2u);
      if (min_taxon_behind(tree, others[0], junction) >
          min_taxon_behind(tree, others[1], junction)) {
        std::swap(others[0], others[1]);
      }
      optimizer.smooth_edges(tree,
                             {{junction, focus},
                              {junction, others[0]},
                              {junction, others[1]}},
                             kQuickAddPasses);
      const double lnl = engine.log_likelihood_edge(focus, junction);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(result.log_likelihood),
                std::bit_cast<std::uint64_t>(lnl))
          << backend << " task " << task.task_id;
      ASSERT_EQ(result.newick, to_newick(tree, data.names(), 17))
          << backend << " task " << task.task_id;
    }
  }
}

}  // namespace
