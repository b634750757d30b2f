// Tests for the generalized N-state subsystem: alphabets, models, the
// pruning engine (validated against brute-force enumeration), branch
// optimization, the gap-as-character-state treatment, and protein data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "likelihood/engine.hpp"
#include "model/simulate.hpp"
#include "model/submodel.hpp"
#include "nstate/alphabet.hpp"
#include "nstate/data.hpp"
#include "nstate/engine.hpp"
#include "nstate/model.hpp"
#include "nstate/simulate.hpp"
#include "seq/alignment.hpp"
#include "seq/alphabet.hpp"
#include "tree/random.hpp"
#include "util/linalg.hpp"
#include "util/simd.hpp"

namespace fdml {
namespace {

std::vector<std::string> names_for(int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) names.push_back("t" + std::to_string(i));
  return names;
}

// Quartet builder: grouped -> ((t0,t1),(t2,t3)); otherwise ((t0,t2),(t1,t3)).
Tree quartet(const std::vector<std::string>& names, bool grouped) {
  Tree tree(static_cast<int>(names.size()));
  tree.make_triplet(0, grouped ? 1 : 2, grouped ? 2 : 1, 0.05, 0.05, 0.05);
  const int other = grouped ? 2 : 1;
  tree.insert_tip(3, other, tree.neighbor(other, 0), 0.05);
  return tree;
}

// --- alphabets ---

TEST(NAlphabet, DnaMatchesCoreSemantics) {
  const StateAlphabet dna = StateAlphabet::dna();
  EXPECT_EQ(dna.num_states(), 4);
  EXPECT_EQ(dna.code('A'), 1u);
  EXPECT_EQ(dna.code('g'), 4u);
  EXPECT_EQ(dna.code('R'), 5u);
  EXPECT_EQ(dna.code('-'), dna.unknown_mask()) << "gap = missing in 4-state";
  EXPECT_EQ(dna.code('!'), 0u);
  // Both use bit s for base s (A C G T), so the masks compare directly:
  // every character the core accepts is the same base set here, including
  // the three-base codes B D H V, and what the core rejects is rejected.
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    EXPECT_EQ(dna.code(c), std::uint32_t{char_to_code(c)}) << "character " << i;
  }
  const StateAlphabet five = StateAlphabet::dna_with_gap();
  for (char c : std::string("URYMKSWBDHV")) {
    EXPECT_EQ(five.code(c), std::uint32_t{char_to_code(c)}) << c;
  }
}

TEST(NAlphabet, GapStateIsARealState) {
  const StateAlphabet five = StateAlphabet::dna_with_gap();
  EXPECT_EQ(five.num_states(), 5);
  EXPECT_EQ(five.code('-'), 1u << 4) << "gap is its own state";
  EXPECT_EQ(five.code('N'), 0x0fu) << "N = any base but NOT a gap";
  EXPECT_EQ(five.code('?'), five.unknown_mask()) << "? could be anything";
}

TEST(NAlphabet, ProteinCodes) {
  const StateAlphabet protein = StateAlphabet::protein();
  EXPECT_EQ(protein.num_states(), 20);
  // Every canonical symbol round-trips to a pure state.
  for (int s = 0; s < 20; ++s) {
    EXPECT_EQ(protein.code(protein.symbol(s)), std::uint32_t{1} << s);
  }
  EXPECT_EQ(__builtin_popcount(protein.code('B')), 2) << "B = N or D";
  EXPECT_EQ(__builtin_popcount(protein.code('Z')), 2) << "Z = Q or E";
  EXPECT_EQ(protein.code('X'), protein.unknown_mask());
  EXPECT_EQ(protein.code('8'), 0u);
  const auto coded = protein.encode("ARNDX");
  EXPECT_EQ(protein.decode(coded), "ARNDX");
  EXPECT_THROW(protein.encode("AR#D"), std::invalid_argument);
}

// --- models ---

class NModelCase : public ::testing::TestWithParam<int> {
 protected:
  GeneralModel model() const {
    switch (GetParam()) {
      case 0: return GeneralModel::poisson(4);
      case 1: return GeneralModel::poisson(20);
      case 2:
        return GeneralModel::proportional({0.3, 0.2, 0.15, 0.25, 0.1});
      default:
        return GeneralModel::dna_with_gap({0.3, 0.2, 0.25, 0.25}, 1.5, 0.12, 0.4);
    }
  }
};

INSTANTIATE_TEST_SUITE_P(Models, NModelCase, ::testing::Range(0, 4));

TEST_P(NModelCase, StochasticAndReversible) {
  const GeneralModel m = model();
  const std::size_t n = static_cast<std::size_t>(m.num_states());
  std::vector<double> p;
  for (double t : {0.0, 0.05, 0.5, 3.0}) {
    m.transition(t, p);
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_GE(p[i * n + j], 0.0);
        row += p[i * n + j];
      }
      EXPECT_NEAR(row, 1.0, 1e-9) << m.name() << " t=" << t;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(m.frequencies()[i] * p[i * n + j],
                    m.frequencies()[j] * p[j * n + i], 1e-10)
            << m.name();
      }
    }
  }
  // Stationary at large t.
  m.transition(400.0, p);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(p[i * n + j], m.frequencies()[j], 1e-8) << m.name();
    }
  }
}

TEST_P(NModelCase, UnitMeanRateAndDerivatives) {
  const GeneralModel m = model();
  const std::size_t n = static_cast<std::size_t>(m.num_states());
  double mu = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mu -= m.frequencies()[i] * m.rate_matrix()[i * n + i];
  }
  EXPECT_NEAR(mu, 1.0, 1e-12);

  std::vector<double> p;
  std::vector<double> dp;
  std::vector<double> d2p;
  std::vector<double> plus;
  std::vector<double> minus;
  const double t = 0.21;
  const double h = 1e-5;
  m.transition_with_derivs(t, p, dp, d2p);
  m.transition(t + h, plus);
  m.transition(t - h, minus);
  for (std::size_t x = 0; x < n * n; ++x) {
    EXPECT_NEAR(dp[x], (plus[x] - minus[x]) / (2 * h), 1e-5);
    EXPECT_NEAR(d2p[x], (plus[x] - 2 * p[x] + minus[x]) / (h * h), 1e-3);
  }
}

TEST(NModel, FourStatePoissonMatchesJc69ClosedForm) {
  const GeneralModel m = GeneralModel::poisson(4);
  std::vector<double> p;
  for (double t : {0.1, 0.7}) {
    m.transition(t, p);
    const double e = std::exp(-4.0 * t / 3.0);
    EXPECT_NEAR(p[0], 0.25 + 0.75 * e, 1e-10);
    EXPECT_NEAR(p[1], 0.25 - 0.25 * e, 1e-10);
  }
}

TEST(NModel, RejectsBadInput) {
  EXPECT_THROW(GeneralModel::proportional({0.5, -0.5, 0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(GeneralModel::reversible("x", {0.5, 0.5}, {1.0, 1.0}),
               std::invalid_argument)
      << "2 states need exactly 1 exchangeability";
  EXPECT_THROW(GeneralModel::dna_with_gap({0.25, 0.25, 0.25, 0.25}, 1.0, 1.5, 1.0),
               std::invalid_argument);
}

// --- data ---

TEST(NData, PatternsCompressAndCount) {
  StateAlignment alignment(StateAlphabet::protein());
  alignment.add_sequence("t0", "AARND");
  alignment.add_sequence("t1", "AARNC");
  alignment.add_sequence("t2", "AAKND");
  const StatePatterns patterns(alignment);
  EXPECT_EQ(patterns.num_taxa(), 3u);
  EXPECT_EQ(patterns.num_sites(), 5u);
  EXPECT_EQ(patterns.num_patterns(), 4u) << "columns 0 and 1 merge";
  EXPECT_DOUBLE_EQ(patterns.weight(patterns.pattern_of_site(0)), 2.0);
}

TEST(NData, GapFrequencyCounted) {
  StateAlignment alignment(StateAlphabet::dna_with_gap());
  alignment.add_sequence("t0", "AC-T");
  alignment.add_sequence("t1", "AC-T");
  const auto freq = alignment.state_frequencies();
  ASSERT_EQ(freq.size(), 5u);
  EXPECT_NEAR(freq[4], 0.25, 1e-5) << "2 gaps of 8 characters (tiny shift from\n"                                      "the epsilon floor on the absent G)";
}

TEST(NData, FastaReader) {
  std::istringstream in(">seq1 description\nARND\nCQEG\n>seq2\nARNDCQEG\n");
  const StateAlignment alignment =
      StateAlignment::from_fasta(in, StateAlphabet::protein());
  EXPECT_EQ(alignment.num_taxa(), 2u);
  EXPECT_EQ(alignment.num_sites(), 8u);
  EXPECT_EQ(alignment.name(0), "seq1");
}

// --- engine vs brute force ---

double nstate_brute_force(const Tree& tree, const StatePatterns& data,
                          const GeneralModel& model, const RateModel& rates) {
  const std::size_t n = static_cast<std::size_t>(model.num_states());
  std::vector<int> nodes;
  for (int node = 0; node < tree.max_nodes(); ++node) {
    if (tree.contains(node)) nodes.push_back(node);
  }
  const int root = tree.any_internal();
  // Parent->child directed edges away from the root.
  std::vector<std::pair<int, int>> edges;
  std::vector<std::pair<int, int>> stack{{root, -1}};
  while (!stack.empty()) {
    const auto [node, from] = stack.back();
    stack.pop_back();
    for (int s = 0; s < 3; ++s) {
      const int nbr = tree.neighbor(node, s);
      if (nbr == Tree::kNoNode || nbr == from) continue;
      edges.emplace_back(node, nbr);
      stack.push_back({nbr, node});
    }
  }
  double total = 0.0;
  for (std::size_t pat = 0; pat < data.num_patterns(); ++pat) {
    double site = 0.0;
    for (std::size_t c = 0; c < rates.num_categories(); ++c) {
      std::vector<std::vector<double>> p(edges.size());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        model.transition(tree.length(edges[e].first, edges[e].second) *
                             rates.rate(c),
                         p[e]);
      }
      std::vector<int> state(nodes.size(), 0);
      double cat_sum = 0.0;
      for (;;) {
        bool ok = true;
        for (std::size_t k = 0; k < nodes.size() && ok; ++k) {
          if (tree.is_tip(nodes[k])) {
            const std::uint32_t mask =
                data.at(static_cast<std::size_t>(nodes[k]), pat);
            if (!(mask & (std::uint32_t{1} << state[k]))) ok = false;
          }
        }
        if (ok) {
          auto state_of = [&](int node) {
            for (std::size_t k = 0; k < nodes.size(); ++k) {
              if (nodes[k] == node) return state[k];
            }
            return -1;
          };
          double term =
              model.frequencies()[static_cast<std::size_t>(state_of(root))];
          for (std::size_t e = 0; e < edges.size(); ++e) {
            term *= p[e][static_cast<std::size_t>(state_of(edges[e].first)) * n +
                         static_cast<std::size_t>(state_of(edges[e].second))];
          }
          cat_sum += term;
        }
        std::size_t k = 0;
        while (k < nodes.size()) {
          if (++state[k] < static_cast<int>(n)) break;
          state[k] = 0;
          ++k;
        }
        if (k == nodes.size()) break;
      }
      site += rates.probability(c) * cat_sum;
    }
    total += data.weight(pat) * std::log(site);
  }
  return total;
}

TEST(NEngine, GapModelMatchesBruteForce) {
  StateAlignment alignment(StateAlphabet::dna_with_gap());
  alignment.add_sequence("t0", "AC-TA?");
  alignment.add_sequence("t1", "ACGT-N");
  alignment.add_sequence("t2", "AC-TAR");
  alignment.add_sequence("t3", "GC--AA");
  const StatePatterns data(alignment);
  const GeneralModel model =
      GeneralModel::dna_with_gap({0.3, 0.2, 0.25, 0.25}, 1.2, 0.15, 0.5);
  const RateModel rates = RateModel::discrete_gamma(0.8, 2);
  Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const Tree tree = random_tree(4, rng);
    GeneralEngine engine(data, model, rates);
    engine.attach(tree);
    EXPECT_NEAR(engine.log_likelihood(),
                nstate_brute_force(tree, data, model, rates), 1e-8)
        << "trial " << trial;
  }
}

TEST(NEngine, FourStateEngineAgreesWithCoreEngine) {
  // The dna() N-state alphabet reproduces the core 4-state semantics, so
  // both engines must compute identical likelihoods under JC.
  const char* rows[] = {"ACGTACGTNN", "ACTTAC-TAA", "AGGTACGTCA", "ACGAACGTCC"};
  Alignment core_alignment;
  StateAlignment nstate_alignment(StateAlphabet::dna());
  for (int t = 0; t < 4; ++t) {
    core_alignment.add_sequence("t" + std::to_string(t), string_to_codes(rows[t]));
    nstate_alignment.add_sequence("t" + std::to_string(t), rows[t]);
  }
  const PatternAlignment core_data(core_alignment);
  const StatePatterns nstate_data(nstate_alignment);
  Rng rng(7);
  const Tree tree = random_tree(4, rng);

  LikelihoodEngine core(core_data, SubstModel::jc69(), RateModel::uniform());
  core.attach(tree);
  GeneralEngine general(nstate_data, GeneralModel::poisson(4), RateModel::uniform());
  general.attach(tree);
  EXPECT_NEAR(core.log_likelihood(), general.log_likelihood(), 1e-9);
}

// Differential oracle: the core engine (eigen-basis kernels, CLV caches,
// scaling, one kernel table per SIMD backend) against the N-state engine
// (plain post-order pruning off P(t)).

// Every backend this CPU runs; automatic selection comes back when the
// guard ends, even on assertion failure.
struct ExactBackends {
  ExactBackends() {
    for (simd::Backend b : simd::compiled_backends()) {
      if (simd::cpu_supports(b)) list.push_back(b);
    }
  }
  ~ExactBackends() { simd::set_backend("auto"); }
  std::vector<simd::Backend> list;
};

// On every backend in `backends`: the core's lnL agrees with the oracle's to
// 1e-10 relative, and d1 and d2 of each edge in `edges`, at its length and
// at `t_other`, to 1e-9 (floor 1). The oracle model comes from the core's
// normalized rate matrix: exchangeability Q[i][j] / pi[j], strict upper
// triangle row by row. Returns the fewest CLV rescales any backend counted.
std::uint64_t expect_core_matches_oracle(
    const Alignment& alignment, const SubstModel& model,
    const RateModel& rates, const Tree& tree,
    const std::vector<std::pair<int, int>>& edges, double t_other,
    const std::vector<simd::Backend>& backends, const std::string& what) {
  const PatternAlignment core_data(alignment);
  StateAlignment state_alignment(StateAlphabet::dna());
  for (std::size_t t = 0; t < alignment.num_taxa(); ++t) {
    state_alignment.add_sequence(alignment.name(t),
                                 codes_to_string(alignment.row(t)));
  }
  const StatePatterns oracle_data(state_alignment);
  const Mat4& q = model.rate_matrix();
  const Vec4& freq = model.frequencies();
  std::vector<double> oracle_exchange;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = i + 1; j < 4; ++j) {
      oracle_exchange.push_back(q[i][j] / freq[j]);
    }
  }
  const GeneralModel oracle_model = GeneralModel::reversible(
      "GTR", std::vector<double>(freq.begin(), freq.end()), oracle_exchange);

  GeneralEngine oracle(oracle_data, oracle_model, rates);
  oracle.attach(tree);
  const double want_lnl = oracle.log_likelihood();
  std::vector<EdgeDerivatives> want;  // per edge: at its length, at t_other
  for (const auto& [u, v] : edges) {
    const GeneralEdgeLikelihood edge = oracle.edge_likelihood(u, v);
    for (double t : {tree.length(u, v), t_other}) {
      EdgeDerivatives d;
      (void)edge.evaluate(t, &d.d1, &d.d2);
      want.push_back(d);
    }
  }

  std::uint64_t fewest_rescales = ~std::uint64_t{0};
  for (simd::Backend backend : backends) {
    const std::string label =
        std::string(simd::backend_name(backend)) + " " + what;
    EXPECT_TRUE(simd::set_backend(simd::backend_name(backend))) << label;
    LikelihoodEngine core(core_data, model, rates);
    core.attach(tree);
    EXPECT_NEAR(core.log_likelihood(), want_lnl, 1e-10 * std::fabs(want_lnl))
        << label;
    const EdgeDerivatives* expected = want.data();
    for (const auto& [u, v] : edges) {
      const EdgeLikelihood edge = core.edge_likelihood(u, v);
      for (double t : {tree.length(u, v), t_other}) {
        const EdgeDerivatives got = edge.derivatives(t);
        const EdgeDerivatives& d = *expected++;
        EXPECT_NEAR(got.d1, d.d1, 1e-9 * std::max(1.0, std::fabs(d.d1)))
            << label << " edge " << u << "-" << v << " t " << t;
        EXPECT_NEAR(got.d2, d.d2, 1e-9 * std::max(1.0, std::fabs(d.d2)))
            << label << " edge " << u << "-" << v << " t " << t;
      }
    }
    fewest_rescales = std::min(fewest_rescales, core.counters().clv_rescales);
  }
  return fewest_rescales;
}

// Paper-shaped data (ambiguity codes, ~2% missing data) under a random GTR
// with four gamma categories, one tip edge.
TEST(NEngine, CoreEngineMatchesOracleOnGtrGamma) {
  const ExactBackends backends;
  const RateModel rates = RateModel::discrete_gamma(0.5, 4);
  for (int s = 1; s <= 5; ++s) {
    const std::uint64_t seed = static_cast<std::uint64_t>(2 * s - 1);
    const Alignment alignment = make_paper_like_dataset(50, 300, seed);
    Rng rng(seed);
    Vec4 pi{};
    double pi_sum = 0.0;
    for (double& p : pi) pi_sum += (p = rng.uniform(0.1, 1.0));
    for (double& p : pi) p /= pi_sum;
    std::array<double, 6> exchange{};
    for (double& r : exchange) r = rng.uniform(0.2, 5.0);
    const SubstModel model = SubstModel::gtr(pi, exchange);
    const Tree tree = random_tree(50, rng);
    const int tip = 0;
    expect_core_matches_oracle(alignment, model, rates, tree,
                               {{tip, tree.neighbor(tip, 0)}}, 0.2,
                               backends.list, "seed " + std::to_string(seed));
  }
}

// The rescaling caterpillar of Engine.ScalingKeepsDeepTreesFinite under
// F84 + gamma: site likelihoods far below 2^-256 before scaling, so the
// Newton terms divide by the smallest s the engine sees. Five spine edges
// from one end of the chain to the other.
TEST(NEngine, CoreEngineMatchesOracleOnRescaledCaterpillar) {
  const ExactBackends backends;
  const int n = 300;
  Tree tree(n);
  tree.make_triplet(0, 1, 2, 0.4, 0.4, 0.4);
  for (int tip = 3; tip < n; ++tip) {
    tree.insert_tip(tip, tip - 1, tree.neighbor(tip - 1, 0), 0.4);
  }
  const SubstModel model =
      SubstModel::f84_from_tstv({0.3, 0.2, 0.25, 0.25}, 2.0);
  const RateModel rates = RateModel::discrete_gamma(0.5, 4);
  Rng rng(17);
  SimulateOptions options;
  options.num_sites = 200;
  const Alignment alignment = simulate_alignment(
      tree, default_taxon_names(n), model, rates, options, rng);

  std::vector<std::pair<int, int>> spine;
  for (const auto& [u, v] : tree.edges()) {
    if (!tree.is_tip(u) && !tree.is_tip(v)) spine.emplace_back(u, v);
  }
  ASSERT_GE(spine.size(), 5u);
  std::vector<std::pair<int, int>> edges;
  for (std::size_t i = 0; i < 5; ++i) {
    edges.push_back(spine[i * (spine.size() - 1) / 4]);
  }
  const std::uint64_t rescales = expect_core_matches_oracle(
      alignment, model, rates, tree, edges, 0.05, backends.list, "caterpillar");
  EXPECT_GT(rescales, 0u) << "tree not deep enough to exercise scaling";
}

TEST(NEngine, EdgeDerivativesMatchFiniteDifferences) {
  StateAlignment alignment(StateAlphabet::protein());
  alignment.add_sequence("t0", "ARNDCQEGHI");
  alignment.add_sequence("t1", "ARNDCQEGHL");
  alignment.add_sequence("t2", "ARNECREGHI");
  alignment.add_sequence("t3", "AKNDCQEGWI");
  const StatePatterns data(alignment);
  GeneralEngine engine(data, GeneralModel::poisson(20), RateModel::uniform());
  Rng rng(5);
  const Tree tree = random_tree(4, rng);
  engine.attach(tree);
  const auto [u, v] = tree.edges()[1];
  const GeneralEdgeLikelihood f = engine.edge_likelihood(u, v);
  for (double t : {0.05, 0.4}) {
    double d1 = 0.0;
    double d2 = 0.0;
    const double lnl = f.evaluate(t, &d1, &d2);
    const double h = 1e-5;
    const double plus = f.evaluate(t + h);
    const double minus = f.evaluate(t - h);
    EXPECT_NEAR(d1, (plus - minus) / (2 * h), 1e-4 * (1 + std::fabs(d1)));
    EXPECT_NEAR(d2, (plus - 2 * lnl + minus) / (h * h),
                1e-3 * (1 + std::fabs(d2)));
  }
}

TEST(NEngine, SmoothingImprovesProteinLikelihood) {
  Rng rng(11);
  const Tree truth = random_yule_tree(8, rng);
  const StateAlphabet protein = StateAlphabet::protein();
  const GeneralModel model = GeneralModel::poisson(20);
  StateAlignment alignment = simulate_states(
      truth, default_taxon_names(8), protein, model, RateModel::uniform(), 200, rng);
  const StatePatterns data(alignment);

  Tree tree = truth;
  for (const auto& [u, v] : tree.edges()) tree.set_length(u, v, 0.5);
  GeneralEngine engine(data, model, RateModel::uniform());
  engine.attach(tree);
  const double before = engine.log_likelihood();
  const double after = engine.smooth(tree, 4);
  EXPECT_GT(after, before);
  // Recovered lengths approximate the truth.
  for (const auto& [u, v] : truth.edges()) {
    EXPECT_NEAR(tree.length(u, v), truth.length(u, v),
                0.08 + 0.5 * truth.length(u, v));
  }
}

TEST(NEngine, GapStateExtractsSignalMissingTreatmentDiscards) {
  // Two clades distinguished *only* by an indel block: the 5-state model
  // must prefer the true grouping; the missing-data treatment is blind to
  // it. This is the paper's motivation for gaps-as-a-character-state.
  const int taxa = 4;
  const auto names = names_for(taxa);
  auto build = [&](const char* a, const char* b, const char* c, const char* d) {
    StateAlignment alignment(StateAlphabet::dna_with_gap());
    alignment.add_sequence(names[0], a);
    alignment.add_sequence(names[1], b);
    alignment.add_sequence(names[2], c);
    alignment.add_sequence(names[3], d);
    return alignment;
  };
  // t0,t1 share a deletion; t2,t3 do not. Bases are identical everywhere.
  const StateAlignment alignment = build(
      "ACGT----ACGTACGT", "ACGT----ACGTACGT", "ACGTACGTACGTACGT",
      "ACGTACGTACGTACGT");
  const StatePatterns data(alignment);
  const GeneralModel model =
      GeneralModel::dna_with_gap({0.25, 0.25, 0.25, 0.25}, 1.0, 0.15, 0.5);

  GeneralEngine engine(data, model, RateModel::uniform());
  Tree grouped = quartet(names, true);
  const double lnl_grouped = engine.smooth(grouped, 4);
  Tree split = quartet(names, false);
  const double lnl_split = engine.smooth(split, 4);
  EXPECT_GT(lnl_grouped, lnl_split)
      << "shared indels are phylogenetic signal under the 5-state model";

  // Under the 4-state (gap = missing) treatment the two topologies are
  // indistinguishable: the alignments' bases are identical.
  Alignment missing;
  missing.add_sequence(names[0], string_to_codes("ACGT----ACGTACGT"));
  missing.add_sequence(names[1], string_to_codes("ACGT----ACGTACGT"));
  missing.add_sequence(names[2], string_to_codes("ACGTACGTACGTACGT"));
  missing.add_sequence(names[3], string_to_codes("ACGTACGTACGTACGT"));
  const PatternAlignment core_data(missing);
  LikelihoodEngine core(core_data, SubstModel::jc69(), RateModel::uniform());
  Tree g4 = quartet(names, true);
  core.attach(g4);
  const double core_grouped = core.log_likelihood();
  Tree s4 = quartet(names, false);
  core.attach(s4);
  const double core_split = core.log_likelihood();
  EXPECT_NEAR(core_grouped, core_split, 0.3)
      << "gap-as-missing sees (almost) no difference";
}

}  // namespace
}  // namespace fdml
