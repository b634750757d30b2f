// Tests for the likelihood engine, branch optimizer and site-rate
// estimator. The engine is validated against a brute-force likelihood that
// enumerates every internal-state assignment.
#include <gtest/gtest.h>

#include <cmath>

#include "likelihood/batch.hpp"
#include "likelihood/engine.hpp"
#include "likelihood/evaluator.hpp"
#include "likelihood/optimize.hpp"
#include "likelihood/transition_cache.hpp"
#include "likelihood/site_rates.hpp"
#include "model/simulate.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

// Brute force: sum over all state assignments to every node (tips restricted
// to states compatible with their codes), with rate-category mixing.
double brute_force_log_likelihood(const Tree& tree, const PatternAlignment& data,
                                  const SubstModel& model, const RateModel& rates) {
  std::vector<int> nodes;
  for (int n = 0; n < tree.max_nodes(); ++n) {
    if (tree.contains(n)) nodes.push_back(n);
  }
  const Vec4& pi = model.frequencies();
  const int root = tree.any_internal();

  // Orient every edge parent -> child away from the root: P_ij is the
  // probability of child state j given parent state i, which matters for
  // models with unequal frequencies.
  std::vector<std::pair<int, int>> edges;
  {
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
  }

  double total = 0.0;
  for (std::size_t pat = 0; pat < data.num_patterns(); ++pat) {
    double site_likelihood = 0.0;
    for (std::size_t cat = 0; cat < rates.num_categories(); ++cat) {
      std::vector<Mat4> p(edges.size());
      for (std::size_t e = 0; e < edges.size(); ++e) {
        model.transition(tree.length(edges[e].first, edges[e].second) *
                             rates.rate(cat),
                         p[e]);
      }
      // Enumerate assignments via odometer over nodes.
      std::vector<int> state(nodes.size(), 0);
      double cat_sum = 0.0;
      for (;;) {
        // Compatibility with tip data.
        bool ok = true;
        for (std::size_t k = 0; k < nodes.size() && ok; ++k) {
          if (tree.is_tip(nodes[k])) {
            const BaseCode code = data.at(static_cast<std::size_t>(nodes[k]), pat);
            if (!(code & base_from_index(state[k]))) ok = false;
          }
        }
        if (ok) {
          auto state_of = [&](int node) {
            for (std::size_t k = 0; k < nodes.size(); ++k) {
              if (nodes[k] == node) return state[k];
            }
            return -1;
          };
          double term = pi[static_cast<std::size_t>(state_of(root))];
          for (std::size_t e = 0; e < edges.size(); ++e) {
            term *= p[e][state_of(edges[e].first)][state_of(edges[e].second)];
          }
          cat_sum += term;
        }
        // Advance odometer.
        std::size_t k = 0;
        while (k < nodes.size()) {
          if (++state[k] < 4) break;
          state[k] = 0;
          ++k;
        }
        if (k == nodes.size()) break;
      }
      site_likelihood += rates.probability(cat) * cat_sum;
    }
    total += data.weight(pat) * std::log(site_likelihood);
  }
  return total;
}

Alignment small_alignment() {
  Alignment alignment;
  alignment.add_sequence("t0", string_to_codes("ACGTACGTAANCGTRA"));
  alignment.add_sequence("t1", string_to_codes("ACGTACTTAA-CGTGA"));
  alignment.add_sequence("t2", string_to_codes("ACGAACGTCAACTTAA"));
  alignment.add_sequence("t3", string_to_codes("AGGTACGTCATCGTAY"));
  alignment.add_sequence("t4", string_to_codes("ACCTACGTTAACGAAA"));
  return alignment;
}

struct EngineCase {
  const char* name;
  SubstModel model;
  RateModel rates;
};

std::vector<EngineCase> engine_cases() {
  const Vec4 pi{0.3, 0.2, 0.15, 0.35};
  std::vector<EngineCase> cases;
  cases.push_back({"jc_uniform", SubstModel::jc69(), RateModel::uniform()});
  cases.push_back({"f84_uniform", SubstModel::f84(pi, 1.2), RateModel::uniform()});
  cases.push_back({"gtr_gamma", SubstModel::gtr(pi, {1.2, 3.0, 0.7, 1.1, 4.2, 1.0}),
                   RateModel::discrete_gamma(0.5, 3)});
  cases.push_back({"hky_gammaI", SubstModel::hky85(pi, 3.0),
                   RateModel::gamma_invariant(0.8, 2, 0.15)});
  return cases;
}

class EngineVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(EngineVsBruteForce, MatchesEnumeration) {
  const EngineCase c = engine_cases()[static_cast<std::size_t>(GetParam())];
  const Alignment alignment = small_alignment();
  const PatternAlignment data(alignment);
  Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 3; ++trial) {
    const Tree tree = random_tree(5, rng);
    LikelihoodEngine engine(data, c.model, c.rates);
    engine.attach(tree);
    const double fast = engine.log_likelihood();
    const double slow = brute_force_log_likelihood(tree, data, c.model, c.rates);
    EXPECT_NEAR(fast, slow, 1e-8) << c.name << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, EngineVsBruteForce, ::testing::Range(0, 4));

TEST(Engine, SameLikelihoodAcrossEveryEdge) {
  const PatternAlignment data(small_alignment());
  Rng rng(7);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const double reference = engine.log_likelihood();
  for (const auto& [u, v] : tree.edges()) {
    EXPECT_NEAR(engine.log_likelihood_edge(u, v), reference, 1e-9)
        << "edge " << u << "-" << v;
  }
}

TEST(Engine, PatternCompressionPreservesLikelihood) {
  // Duplicate columns must contribute exactly via weights: compare the
  // compressed alignment against an explicitly repeated one.
  Alignment base;
  base.add_sequence("t0", string_to_codes("ACGTA"));
  base.add_sequence("t1", string_to_codes("ACGTC"));
  base.add_sequence("t2", string_to_codes("AGGTA"));
  base.add_sequence("t3", string_to_codes("ACTTA"));
  Alignment repeated;
  for (std::size_t t = 0; t < base.num_taxa(); ++t) {
    auto row = base.row(t);
    auto doubled = row + row + row;
    repeated.add_sequence(base.name(t), doubled);
  }
  Rng rng(11);
  const Tree tree = random_tree(4, rng);
  const PatternAlignment d1(base);
  const PatternAlignment d3(repeated);
  LikelihoodEngine e1(d1, SubstModel::jc69(), RateModel::uniform());
  LikelihoodEngine e3(d3, SubstModel::jc69(), RateModel::uniform());
  e1.attach(tree);
  e3.attach(tree);
  EXPECT_NEAR(3.0 * e1.log_likelihood(), e3.log_likelihood(), 1e-8);
  EXPECT_LT(d3.num_patterns(), repeated.num_sites());
}

TEST(Engine, SiteLogLikelihoodsSumToTotal) {
  const PatternAlignment data(small_alignment());
  Rng rng(13);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::f84({0.3, 0.2, 0.2, 0.3}, 1.0),
                          RateModel::discrete_gamma(1.0, 2));
  engine.attach(tree);
  const auto site_lnls = engine.site_log_likelihoods();
  double sum = 0.0;
  for (double s : site_lnls) sum += s;
  EXPECT_NEAR(sum, engine.log_likelihood(), 1e-8);
}

TEST(Engine, ScalingKeepsDeepTreesFinite) {
  // A 300-taxon caterpillar with substantial branch lengths drives raw
  // conditional likelihoods far below 2^-256 (~e^-1.1 per level); the
  // per-pattern scaling (the paper's normalization change) must fire and
  // keep lnL finite and consistent with per-site values.
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
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const double lnl = engine.log_likelihood();
  EXPECT_GT(engine.counters().clv_rescales, 0u)
      << "tree not deep enough to exercise scaling";
  EXPECT_TRUE(std::isfinite(lnl));
  EXPECT_LT(lnl, 0.0);
  const auto site_lnls = engine.site_log_likelihoods();
  double sum = 0.0;
  for (double s : site_lnls) {
    EXPECT_TRUE(std::isfinite(s));
    sum += s;
  }
  EXPECT_NEAR(sum, lnl, 1e-6);

  // A batched insertion view takes its scale offset only from operands
  // whose scale flag is set; the per-site values of the real splice read
  // the scale counters themselves, so they check those flags
  // independently. The edge sits a quarter along the chain, where the
  // junction combine rescales nothing itself: its flag has to come from
  // the deep child's.
  const int focus = n - 1;
  Tree base = tree;
  base.remove_tip(focus);
  const int u = base.neighbor(n / 4, 0);
  const int v = base.neighbor(n / 4 + 1, 0);
  ASSERT_GE(base.find_slot(u, v), 0) << "chain nodes not adjacent";
  Tree spliced = base;
  const int junction = spliced.insert_tip(focus, u, v);
  const double tip_length = spliced.length(junction, focus);

  LikelihoodEngine base_engine(data, SubstModel::jc69(), RateModel::uniform());
  base_engine.attach(base);
  BatchEdgeEvaluator batch(base_engine);
  batch.capture_insertions(focus, {{u, v, spliced.length(junction, u),
                                    spliced.length(junction, v)}});
  const double view_lnl = batch.view(0).evaluate(tip_length);

  LikelihoodEngine spliced_engine(data, SubstModel::jc69(),
                                  RateModel::uniform());
  spliced_engine.attach(spliced);
  double spliced_sum = 0.0;
  for (double s : spliced_engine.site_log_likelihoods()) spliced_sum += s;
  EXPECT_NEAR(view_lnl, spliced_sum, 1e-6);
}

TEST(Engine, EdgeLikelihoodDerivativesMatchFiniteDifferences) {
  const PatternAlignment data(small_alignment());
  Rng rng(19);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.5),
                          RateModel::discrete_gamma(0.7, 3));
  engine.attach(tree);
  const auto [u, v] = tree.edges()[2];
  const EdgeLikelihood f = engine.edge_likelihood(u, v);
  for (double t : {0.05, 0.2, 0.8}) {
    const double lnl = f.evaluate(t);
    const auto [d1, d2] = f.derivatives(t);
    // h balances truncation against the ~|lnl| * eps / h^2 cancellation
    // noise in the second difference.
    const double h = 1e-5;
    const double plus = f.evaluate(t + h);
    const double minus = f.evaluate(t - h);
    EXPECT_NEAR(d1, (plus - minus) / (2 * h), 1e-4 * (1.0 + std::fabs(d1)));
    EXPECT_NEAR(d2, (plus - 2 * lnl + minus) / (h * h),
                1e-3 * (1.0 + std::fabs(d2)));
  }
}

TEST(Engine, CachedAndFreshEvaluationsAgreeAfterEdits) {
  // Interleave length edits with likelihood queries; the lazily-invalidated
  // cache must always agree with a from-scratch engine.
  const PatternAlignment data(small_alignment());
  Rng rng(23);
  Tree tree = random_tree(5, rng);
  LikelihoodEngine cached(data, SubstModel::jc69(), RateModel::uniform());
  cached.attach(tree);
  (void)cached.log_likelihood();
  const auto edges = tree.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    tree.set_length(u, v, 0.05 + 0.1 * static_cast<double>(e));
    cached.on_length_changed(u, v);
    const double incremental = cached.log_likelihood();
    LikelihoodEngine fresh(data, SubstModel::jc69(), RateModel::uniform());
    fresh.attach(tree);
    EXPECT_NEAR(incremental, fresh.log_likelihood(), 1e-9) << "edit " << e;
  }
}

TEST(Engine, NewtonIterationsReuseCachedClvs) {
  const PatternAlignment data(small_alignment());
  Rng rng(29);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const auto [u, v] = tree.edges()[0];
  const EdgeLikelihood f = engine.edge_likelihood(u, v);
  const auto before = engine.clv_computations();
  for (double t = 0.01; t < 0.5; t += 0.01) f.evaluate(t);
  EXPECT_EQ(engine.clv_computations(), before)
      << "evaluating along one edge must not touch CLVs";
}

TEST(Engine, UnchangedLengthKeepsCachedClvs) {
  // A Newton solve that returns its starting length commits nothing, so
  // CLVs cached for other edges stay valid.
  const PatternAlignment data(small_alignment());
  Rng rng(29);
  Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  BranchOptimizer optimizer(engine);
  const auto edges = tree.edges();
  // edges[1] settles on an interior length (a length pinned at
  // kMinBranchLength keeps halving toward it); edges[3] is a pendant edge
  // whose internal-side CLV covers edges[1].
  const auto [u, v] = edges[1];
  const auto [x, y] = edges[3];
  bool unchanged = false;
  std::uint64_t before = 0;
  for (int call = 0; call < 10 && !unchanged; ++call) {
    (void)engine.edge_likelihood(x, y);  // every CLV (x, y) reads is valid
    const double start = tree.length(u, v);
    unchanged = optimizer.optimize_edge(tree, u, v) == start;
    before = engine.clv_computations();
  }
  ASSERT_TRUE(unchanged) << "no solve returned its starting length";
  (void)engine.edge_likelihood(x, y);
  EXPECT_EQ(engine.clv_computations(), before)
      << "an unchanged length invalidated CLVs of another edge";
}

// --- transition cache & kernel counters ---

TEST(TransitionCache, ServesBitIdenticalMatricesAndCountsHits) {
  const SubstModel model = SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.5);
  TransitionCache cache(64);
  Mat4 direct{};
  Mat4 cached{};
  for (double t : {0.01, 0.15, 0.7}) {
    model.transition(t, direct);
    cache.transition(model, t, cached);  // miss: builds the entry
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(direct[i][j], cached[i][j]) << "t=" << t;
      }
    }
    cache.transition(model, t, cached);  // hit: served from the slot
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_EQ(direct[i][j], cached[i][j]) << "t=" << t << " (cached)";
      }
    }
  }
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 0.5);

  // Epoch bump: every entry becomes stale without touching the slots.
  cache.invalidate();
  cache.transition(model, 0.15, cached);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(TransitionCache, TwoWaySetSurvivesAlternatingCollisions) {
  // Regression for the direct-mapped predecessor: two hot lengths hashing
  // to the same slot thrashed it — every alternation was a miss plus a full
  // exp(Qt) rebuild. The 2-way set keeps both resident; only a *third*
  // collider evicts (LRU within the set).
  const SubstModel model = SubstModel::jc69();
  TransitionCache cache(4);  // 2 sets x 2 ways: collisions are easy to craft
  std::vector<double> colliding{0.01};
  const std::size_t target = cache.set_index(colliding.front());
  for (double t = 0.011; colliding.size() < 3; t += 0.001) {
    if (cache.set_index(t) == target) colliding.push_back(t);
  }

  Mat4 p{};
  cache.transition(model, colliding[0], p);
  cache.transition(model, colliding[1], p);
  EXPECT_EQ(cache.misses(), 2u);
  for (int round = 0; round < 10; ++round) {
    cache.transition(model, colliding[0], p);
    cache.transition(model, colliding[1], p);
  }
  EXPECT_EQ(cache.hits(), 20u);       // direct-mapped: 0 hits, 20 misses
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);

  // Third collider: genuine conflict, evicts the LRU way (colliding[0],
  // touched before colliding[1] in the last round).
  cache.transition(model, colliding[2], p);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  cache.transition(model, colliding[1], p);  // survivor: still resident
  EXPECT_EQ(cache.hits(), 21u);
  cache.transition(model, colliding[0], p);  // victim: gone
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);

  // Values stay bit-identical to the uncached path under all this churn.
  Mat4 direct{};
  model.transition(colliding[0], direct);
  cache.transition(model, colliding[0], p);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(direct[i][j], p[i][j]);
  }

  // Epoch invalidation makes ways stale; refilling them is not an eviction.
  cache.invalidate();
  const std::uint64_t evictions_before = cache.evictions();
  cache.transition(model, colliding[0], p);
  cache.transition(model, colliding[1], p);
  EXPECT_EQ(cache.evictions(), evictions_before);
}

TEST(Engine, SiteLogLikelihoodOverloadMatchesReturningVersion) {
  const PatternAlignment data(small_alignment());
  Rng rng(83);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.5),
                          RateModel::discrete_gamma(0.8, 3));
  engine.attach(tree);

  const std::vector<double> returned = engine.site_log_likelihoods();
  std::vector<double> out(3, 99.0);  // wrong size + stale content on purpose
  engine.site_log_likelihoods(out);
  ASSERT_EQ(out.size(), returned.size());
  for (std::size_t s = 0; s < out.size(); ++s) {
    EXPECT_EQ(out[s], returned[s]) << "site " << s;
  }

  // Reusing the same buffer (the bootstrap pattern) reproduces the values.
  engine.site_log_likelihoods(out);
  double sum = 0.0;
  for (std::size_t s = 0; s < out.size(); ++s) {
    EXPECT_EQ(out[s], returned[s]) << "site " << s << " (reused buffer)";
    sum += out[s];
  }
  EXPECT_NEAR(sum, engine.log_likelihood(), 1e-8);
}

TEST(Engine, SetModelInvalidatesTransitionCacheAndClvs) {
  const PatternAlignment data(small_alignment());
  Rng rng(71);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const double jc = engine.log_likelihood();

  const SubstModel hky = SubstModel::hky85({0.3, 0.2, 0.2, 0.3}, 2.5);
  engine.set_model(hky);
  const double switched = engine.log_likelihood();
  EXPECT_NE(switched, jc);

  // Must match an engine built with the new model from scratch: stale cached
  // P(t) entries or CLVs would show up here.
  LikelihoodEngine fresh(data, hky, RateModel::uniform());
  fresh.attach(tree);
  EXPECT_NEAR(switched, fresh.log_likelihood(), 1e-9);
  EXPECT_GE(engine.transition_cache().invalidations(), 1u);

  // And switching back reproduces the original value exactly.
  engine.set_model(SubstModel::jc69());
  EXPECT_NEAR(engine.log_likelihood(), jc, 1e-12);
}

TEST(Engine, KernelCountersTrackHotPath) {
  const PatternAlignment data(small_alignment());
  Rng rng(73);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);

  const auto [u, v] = tree.edges()[0];
  const EdgeLikelihood f = engine.edge_likelihood(u, v);
  for (double t = 0.01; t < 0.2; t += 0.01) f.evaluate(t);

  const KernelCounters counters = engine.counters();
  EXPECT_GT(counters.clv_computations, 0u);
  EXPECT_EQ(counters.edge_captures, 1u);
  EXPECT_GE(counters.edge_evaluations, 19u);
  EXPECT_GT(counters.transition_misses, 0u);
  EXPECT_GT(counters.scratch_bytes_reused, 0u);
  EXPECT_GE(counters.transition_hit_rate(), 0.0);
  EXPECT_LE(counters.transition_hit_rate(), 1.0);

  // Re-evaluating the same branch lengths is served from the cache.
  const std::uint64_t misses_before = engine.counters().transition_misses;
  for (double t = 0.01; t < 0.2; t += 0.01) f.evaluate(t);
  EXPECT_EQ(engine.counters().transition_misses, misses_before);
  EXPECT_GT(engine.counters().transition_hits, 0u);
}

// --- optimizer ---

TEST(Optimizer, FindsStationaryPointOfEachEdge) {
  const PatternAlignment data(small_alignment());
  Rng rng(31);
  Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  BranchOptimizer optimizer(engine);
  for (const auto& [u, v] : tree.edges()) {
    const double t = optimizer.optimize_edge(tree, u, v);
    const double d1 = engine.edge_likelihood(u, v).derivatives(t).d1;
    // At an interior optimum the gradient is ~0; at the clamp boundaries it
    // may point outward.
    if (t > 2 * kMinBranchLength && t < 0.9 * kMaxBranchLength) {
      EXPECT_NEAR(d1, 0.0, 1e-3) << "edge " << u << "-" << v;
    }
  }
}

TEST(Optimizer, SmoothingNeverDecreasesLikelihood) {
  Rng rng(37);
  Tree truth = random_yule_tree(8, rng);
  SimulateOptions options;
  options.num_sites = 400;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(8), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);

  Tree tree = truth;
  // Perturb all branch lengths badly.
  for (const auto& [u, v] : tree.edges()) tree.set_length(u, v, 0.5);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  BranchOptimizer optimizer(engine);
  double previous = engine.log_likelihood();
  for (int pass = 0; pass < 4; ++pass) {
    for (const auto& [u, v] : tree.edges()) optimizer.optimize_edge(tree, u, v);
    const double current = engine.log_likelihood();
    EXPECT_GE(current, previous - 1e-7) << "pass " << pass;
    previous = current;
  }
}

TEST(Optimizer, RecoversSimulatedBranchLengths) {
  Rng rng(41);
  Tree truth(6);
  truth.make_triplet(0, 1, 2, 0.12, 0.07, 0.2);
  truth.insert_tip(3, 0, truth.neighbor(0, 0), 0.15);
  truth.insert_tip(4, 1, truth.neighbor(1, 0), 0.09);
  truth.insert_tip(5, 2, truth.neighbor(2, 0), 0.11);
  SimulateOptions options;
  options.num_sites = 20000;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(6), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);

  Tree tree = truth;
  for (const auto& [u, v] : tree.edges()) tree.set_length(u, v, 0.3);
  TreeEvaluator evaluator(data, SubstModel::jc69(), RateModel::uniform());
  evaluator.evaluate(tree);
  for (const auto& [u, v] : truth.edges()) {
    EXPECT_NEAR(tree.length(u, v), truth.length(u, v),
                0.03 + 0.15 * truth.length(u, v))
        << "edge " << u << "-" << v;
  }
}

TEST(Optimizer, TrueTopologyBeatsRandomTopology) {
  Rng rng(43);
  Tree truth = random_yule_tree(10, rng);
  SimulateOptions options;
  options.num_sites = 800;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(10), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);
  TreeEvaluator evaluator(data, SubstModel::jc69(), RateModel::uniform());

  Tree true_copy = truth;
  const double lnl_truth = evaluator.evaluate(true_copy).log_likelihood;
  int wins = 0;
  for (int trial = 0; trial < 5; ++trial) {
    Tree random_topology = random_tree(10, rng);
    if (robinson_foulds(random_topology, truth) == 0) continue;
    const double lnl_random = evaluator.evaluate(random_topology).log_likelihood;
    if (lnl_truth > lnl_random) ++wins;
  }
  EXPECT_GE(wins, 4);
}

TEST(Optimizer, PartialSmoothingTouchesOnlyListedEdges) {
  const PatternAlignment data(small_alignment());
  Rng rng(47);
  Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  BranchOptimizer optimizer(engine);
  const auto edges = tree.edges();
  const std::vector<std::pair<int, int>> subset{edges[0], edges[1]};
  std::vector<double> before;
  for (const auto& [u, v] : edges) before.push_back(tree.length(u, v));
  optimizer.smooth_edges(tree, subset, 2);
  for (std::size_t e = 2; e < edges.size(); ++e) {
    EXPECT_DOUBLE_EQ(tree.length(edges[e].first, edges[e].second), before[e]);
  }
}

// --- site rates ---

TEST(SiteRates, PatternFunctionMatchesEngineAtRateOne) {
  const PatternAlignment data(small_alignment());
  Rng rng(53);
  const Tree tree = random_tree(5, rng);
  LikelihoodEngine engine(data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const auto site_lnls = engine.site_log_likelihoods();
  for (std::size_t site = 0; site < data.num_sites(); ++site) {
    const double direct = pattern_log_likelihood_at_rate(
        tree, data, SubstModel::jc69(), data.pattern_of_site(site), 1.0);
    EXPECT_NEAR(direct, site_lnls[site], 1e-9) << "site " << site;
  }
}

TEST(SiteRates, SeparatesFastAndSlowSites) {
  // Simulate slow sites (all branches x0.25) and fast sites (x4) on the
  // same topology, then estimate rates against the unscaled tree.
  Rng rng(59);
  Tree tree = random_yule_tree(12, rng);
  const auto names = default_taxon_names(12);
  SimulateOptions options;
  options.num_sites = 120;

  auto scaled = [&](double factor) {
    Tree t = tree;
    for (const auto& [u, v] : t.edges()) {
      t.set_length(u, v, tree.length(u, v) * factor);
    }
    return t;
  };
  const Tree slow_tree = scaled(0.25);
  const Tree fast_tree = scaled(4.0);
  Rng sim(61);
  const Alignment slow = simulate_alignment(slow_tree, names, SubstModel::jc69(),
                                            RateModel::uniform(), options, sim);
  const Alignment fast = simulate_alignment(fast_tree, names, SubstModel::jc69(),
                                            RateModel::uniform(), options, sim);
  Alignment joint;
  for (std::size_t t = 0; t < slow.num_taxa(); ++t) {
    joint.add_sequence(slow.name(t), slow.row(t) + fast.row(t));
  }
  const PatternAlignment data(joint);
  const auto result = estimate_site_rates(tree, data, SubstModel::jc69());
  double slow_mean = 0.0;
  double fast_mean = 0.0;
  for (std::size_t s = 0; s < 120; ++s) slow_mean += result.site_rates[s];
  for (std::size_t s = 120; s < 240; ++s) fast_mean += result.site_rates[s];
  slow_mean /= 120;
  fast_mean /= 120;
  EXPECT_GT(fast_mean, 2.0 * slow_mean);
}

TEST(SiteRates, CategorizationGroupsAndNormalizes) {
  const std::vector<double> rates{0.1, 0.12, 0.11, 1.0, 1.1, 5.0, 5.2, 4.9};
  const RateCategorization cat = categorize_rates(rates, 4);
  EXPECT_EQ(cat.site_category.size(), rates.size());
  EXPECT_NEAR(cat.model.mean_rate(), 1.0, 1e-9);
  // Sites with similar rates share a category; extremes differ.
  EXPECT_EQ(cat.site_category[0], cat.site_category[1]);
  EXPECT_EQ(cat.site_category[5], cat.site_category[7]);
  EXPECT_NE(cat.site_category[0], cat.site_category[5]);
}

TEST(SiteRates, InvariantColumnGetsLowRate) {
  Alignment alignment;
  alignment.add_sequence("t0", string_to_codes("AAAAAAAAAAACGTACGT"));
  alignment.add_sequence("t1", string_to_codes("AAAAAAAAAAATGCATGA"));
  alignment.add_sequence("t2", string_to_codes("AAAAAAAAAAAGCATTGC"));
  alignment.add_sequence("t3", string_to_codes("AAAAAAAAAAACATGCAT"));
  Rng rng(67);
  const Tree tree = random_tree(4, rng);
  const PatternAlignment data(alignment);
  const auto result = estimate_site_rates(tree, data, SubstModel::jc69());
  EXPECT_LT(result.site_rates[0], 0.1) << "constant column ~ rate 0";
  EXPECT_GT(result.site_rates[14], result.site_rates[0]);
}

}  // namespace
}  // namespace fdml
