// Tests for the paper's future-work features implemented as extensions:
// in-code bootstrap, adaptive rearrangement extents, and speculative
// dispatch across rearrangement barriers.
#include <gtest/gtest.h>

#include <set>

#include "model/simulate.hpp"
#include "search/bootstrap.hpp"
#include "search/search.hpp"
#include "simcluster/simulator.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {
namespace {

// --- bootstrap ---

TEST(Bootstrap, WeightsAreMultinomial) {
  Rng rng(3);
  const std::size_t sites = 500;
  const auto weights = bootstrap_site_weights(sites, rng);
  ASSERT_EQ(weights.size(), sites);
  long total = 0;
  std::size_t zeros = 0;
  for (int w : weights) {
    EXPECT_GE(w, 0);
    total += w;
    if (w == 0) ++zeros;
  }
  EXPECT_EQ(total, static_cast<long>(sites));
  // ~ 1/e of sites drop out of a bootstrap replicate.
  EXPECT_NEAR(static_cast<double>(zeros) / sites, 0.368, 0.06);
}

TEST(Bootstrap, WeightsDifferAcrossDraws) {
  Rng rng(3);
  const auto a = bootstrap_site_weights(200, rng);
  const auto b = bootstrap_site_weights(200, rng);
  EXPECT_NE(a, b);
}

TEST(Bootstrap, StrongSignalGetsHighSupport) {
  Rng rng(11);
  Tree truth = random_yule_tree(8, rng);
  SimulateOptions options;
  options.num_sites = 800;  // plenty of signal
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(8), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);

  BootstrapOptions boot;
  boot.replicates = 8;
  boot.seed = 5;
  const BootstrapResult result = run_bootstrap(
      alignment, SubstModel::jc69(), RateModel::uniform(), boot);
  ASSERT_EQ(result.replicate_trees.size(), 8u);
  ASSERT_FALSE(result.split_support.empty());
  // Out-of-bag diagnostic: every replicate tree re-scored on the original
  // data. Values are finite log-likelihoods, and no replicate tree can beat
  // the data it was not fit to by an implausible margin — each must score
  // within a sane band of the replicate's own (resampled-data) score.
  ASSERT_EQ(result.full_data_log_likelihoods.size(), 8u);
  for (std::size_t r = 0; r < 8; ++r) {
    const double full = result.full_data_log_likelihoods[r];
    EXPECT_TRUE(std::isfinite(full));
    EXPECT_LT(full, 0.0);
    EXPECT_NEAR(full, result.replicate_log_likelihoods[r],
                0.5 * std::abs(result.replicate_log_likelihoods[r]));
  }
  // With this much signal the top splits are (nearly) unanimous.
  EXPECT_GE(result.split_support.front().frequency, 0.9);
  // Consensus supports are bootstrap proportions in (0, 1].
  for (int id : result.consensus.preorder()) {
    if (result.consensus.is_leaf(id) || id == result.consensus.root()) continue;
    const double support = result.consensus.node(id).support;
    EXPECT_GT(support, 0.5);
    EXPECT_LE(support, 1.0 + 1e-12);
  }
  // Replicates mostly recover the generating topology.
  int close = 0;
  for (const Tree& tree : result.replicate_trees) {
    if (robinson_foulds(tree, truth) <= 2) ++close;
  }
  EXPECT_GE(close, 6);
}

TEST(Bootstrap, DeterministicForSeed) {
  Rng rng(13);
  Tree truth = random_yule_tree(6, rng);
  SimulateOptions options;
  options.num_sites = 150;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(6), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  BootstrapOptions boot;
  boot.replicates = 3;
  boot.seed = 9;
  const BootstrapResult a =
      run_bootstrap(alignment, SubstModel::jc69(), RateModel::uniform(), boot);
  const BootstrapResult b =
      run_bootstrap(alignment, SubstModel::jc69(), RateModel::uniform(), boot);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(a.replicate_log_likelihoods[r],
                     b.replicate_log_likelihoods[r]);
    EXPECT_DOUBLE_EQ(a.full_data_log_likelihoods[r],
                     b.full_data_log_likelihoods[r]);
    EXPECT_EQ(robinson_foulds(a.replicate_trees[r], b.replicate_trees[r]), 0);
  }
}

// --- adaptive rearrangement ---

TEST(Adaptive, EscalationNeverHurtsLikelihood) {
  Rng rng(21);
  Tree truth = random_yule_tree(10, rng);
  SimulateOptions sim;
  sim.num_sites = 300;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(10), SubstModel::jc69(),
                         RateModel::uniform(), sim, rng);
  const PatternAlignment data(alignment);
  SerialTaskRunner runner(data, SubstModel::jc69(), RateModel::uniform());

  SearchOptions plain;
  plain.seed = 7;
  SearchOptions adaptive = plain;
  adaptive.adaptive_max_cross = 4;
  const SearchResult base = StepwiseSearch(data, plain).run(runner);
  const SearchResult escalated = StepwiseSearch(data, adaptive).run(runner);
  EXPECT_GE(escalated.best_log_likelihood, base.best_log_likelihood - 1e-9);
  EXPECT_GE(escalated.trees_evaluated, base.trees_evaluated)
      << "escalation evaluates extra widened rounds";
}

TEST(Adaptive, WidenedRoundsAppearInTrace) {
  Rng rng(23);
  Tree truth = random_yule_tree(9, rng);
  SimulateOptions sim;
  sim.num_sites = 200;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(9), SubstModel::jc69(),
                         RateModel::uniform(), sim, rng);
  const PatternAlignment data(alignment);
  SerialTaskRunner runner(data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 7;
  options.adaptive_max_cross = 4;
  const SearchResult result = StepwiseSearch(data, options).run(runner);
  // At k=1 a rearrange round has at most 2n-6 = 12 candidates at n=9; a
  // widened (k>1) round exceeds that.
  std::size_t widest = 0;
  for (const auto& round : result.trace.rounds) {
    if (round.kind == RoundKind::kRearrange) {
      widest = std::max(widest, round.task_cpu_seconds.size());
    }
  }
  EXPECT_GT(widest, 12u) << "adaptive escalation should widen some round";
}

// --- speculative dispatch ---

/// A search-shaped trace with fixed costs: per taxon count an insertion
/// round (2i-5 cheap tasks), a winner, and a final rearrangement round of
/// 2i-6 tasks, preceded at even taxon counts by an improving one (another
/// rearrangement round follows it at the same taxon count). Task k of a
/// round costs (1 + 0.02k) times the round's base cost, so results reach
/// the foreman spread out rather than queued behind each other.
SearchTrace speculative_fixture_trace() {
  SearchTrace trace;
  trace.num_taxa = 30;
  const auto add_round = [&](RoundKind kind, int taxa, int tasks, double cost) {
    RoundTrace round;
    round.kind = kind;
    round.taxa_in_tree = taxa;
    round.master_seconds = 1e-3;
    for (int k = 0; k < tasks; ++k) {
      round.task_cpu_seconds.push_back(cost * (1.0 + 0.02 * k));
      round.task_bytes.push_back(400);
    }
    trace.rounds.push_back(std::move(round));
  };
  add_round(RoundKind::kInitial, 3, 1, 0.01);
  for (int i = 4; i <= trace.num_taxa; ++i) {
    add_round(RoundKind::kInsertion, i, 2 * i - 5, 0.002);
    add_round(RoundKind::kWinner, i, 1, 0.01);
    if (i % 2 == 0) add_round(RoundKind::kRearrange, i, 2 * i - 6, 0.01);
    add_round(RoundKind::kRearrange, i, 2 * i - 6, 0.01);
  }
  return trace;
}

TEST(Speculation, NeverSlowerAndBoundedByNormal) {
  const SearchTrace trace = speculative_fixture_trace();
  for (int p : {8, 16, 64}) {
    SimClusterConfig config;
    config.processors = p;
    const double normal = simulate_trace(trace, config).wall_seconds;
    const SpeculativeResult spec = simulate_trace_speculative(trace, config);
    EXPECT_LE(spec.sim.wall_seconds, normal + 1e-9) << p << " processors";
    EXPECT_GT(spec.sim.wall_seconds, 0.5 * normal)
        << "speculation cannot halve the time of a compute-bound trace";
    EXPECT_GT(spec.speculated_rounds, 0u);
    EXPECT_LE(spec.wasted_speculations, spec.speculated_rounds);
  }
}

TEST(Speculation, SerialUnaffected) {
  const SearchTrace trace = speculative_fixture_trace();
  SimClusterConfig config;
  config.processors = 1;
  const double normal = simulate_trace(trace, config).wall_seconds;
  const SpeculativeResult spec = simulate_trace_speculative(trace, config);
  EXPECT_DOUBLE_EQ(spec.sim.wall_seconds, normal);
  EXPECT_EQ(spec.speculated_rounds, 0u);
}

TEST(Speculation, WastedCountMatchesImprovingRounds) {
  const SearchTrace trace = speculative_fixture_trace();
  // Count rearrangement rounds followed by another rearrangement round at
  // the same taxon count (= rounds that improved the tree).
  std::size_t improving = 0;
  std::size_t rearrange_with_successor = 0;
  for (std::size_t r = 0; r + 1 < trace.rounds.size(); ++r) {
    if (trace.rounds[r].kind != RoundKind::kRearrange) continue;
    ++rearrange_with_successor;
    if (trace.rounds[r + 1].kind == RoundKind::kRearrange &&
        trace.rounds[r + 1].taxa_in_tree == trace.rounds[r].taxa_in_tree) {
      ++improving;
    }
  }
  SimClusterConfig config;
  config.processors = 16;
  const SpeculativeResult spec = simulate_trace_speculative(trace, config);
  EXPECT_EQ(spec.wasted_speculations, improving);
  EXPECT_GT(improving, 0u);
  EXPECT_EQ(spec.speculated_rounds, rearrange_with_successor);
}

}  // namespace
}  // namespace fdml
