// Tests for the comparator methods: Fitch parsimony and neighbor joining.
#include <gtest/gtest.h>

#include "baseline/nj.hpp"
#include "baseline/parsimony.hpp"
#include "model/simulate.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {
namespace {

std::vector<std::string> names_for(int n) {
  std::vector<std::string> names(static_cast<std::size_t>(n), "t");
  for (int i = 0; i < n; ++i) names[static_cast<std::size_t>(i)] += std::to_string(i);
  return names;
}

TEST(Parsimony, HandComputedScores) {
  // Four taxa, known topology ((t0,t1),(t2,t3)).
  Alignment alignment;
  alignment.add_sequence("t0", string_to_codes("AAG"));
  alignment.add_sequence("t1", string_to_codes("AAG"));
  alignment.add_sequence("t2", string_to_codes("CAG"));
  alignment.add_sequence("t3", string_to_codes("CAT"));
  const PatternAlignment data(alignment);
  const Tree tree =
      tree_from_newick("((t0:1,t1:1):1,(t2:1,t3:1):1);", names_for(4));
  // Site 1: A,A,C,C -> 1 change; site 2: constant -> 0; site 3: G,G,G,T -> 1.
  EXPECT_DOUBLE_EQ(fitch_score(tree, data), 2.0);
}

TEST(Parsimony, TopologyMattersForHomoplasy) {
  Alignment alignment;
  alignment.add_sequence("t0", string_to_codes("A"));
  alignment.add_sequence("t1", string_to_codes("C"));
  alignment.add_sequence("t2", string_to_codes("A"));
  alignment.add_sequence("t3", string_to_codes("C"));
  const PatternAlignment data(alignment);
  // Grouping the matching states needs 1 change; splitting them needs 2.
  const Tree good =
      tree_from_newick("((t0:1,t2:1):1,(t1:1,t3:1):1);", names_for(4));
  const Tree bad =
      tree_from_newick("((t0:1,t1:1):1,(t2:1,t3:1):1);", names_for(4));
  EXPECT_DOUBLE_EQ(fitch_score(good, data), 1.0);
  EXPECT_DOUBLE_EQ(fitch_score(bad, data), 2.0);
}

TEST(Parsimony, AmbiguityNeverForcesExtraChanges) {
  Alignment certain;
  certain.add_sequence("t0", string_to_codes("A"));
  certain.add_sequence("t1", string_to_codes("A"));
  certain.add_sequence("t2", string_to_codes("C"));
  certain.add_sequence("t3", string_to_codes("C"));
  Alignment fuzzy;
  fuzzy.add_sequence("t0", string_to_codes("A"));
  fuzzy.add_sequence("t1", string_to_codes("N"));
  fuzzy.add_sequence("t2", string_to_codes("C"));
  fuzzy.add_sequence("t3", string_to_codes("C"));
  const Tree tree =
      tree_from_newick("((t0:1,t1:1):1,(t2:1,t3:1):1);", names_for(4));
  EXPECT_LE(fitch_score(tree, PatternAlignment(fuzzy)),
            fitch_score(tree, PatternAlignment(certain)));
}

TEST(Parsimony, WeightsMultiplyScore) {
  Alignment alignment;
  alignment.add_sequence("t0", string_to_codes("AC"));
  alignment.add_sequence("t1", string_to_codes("AC"));
  alignment.add_sequence("t2", string_to_codes("CA"));
  alignment.add_sequence("t3", string_to_codes("CA"));
  const Tree tree =
      tree_from_newick("((t0:1,t1:1):1,(t2:1,t3:1):1);", names_for(4));
  const PatternAlignment weighted(alignment, {3, 2});
  EXPECT_DOUBLE_EQ(fitch_score(tree, weighted), 5.0);
}

TEST(Parsimony, SearchRecoversCleanSignal) {
  Rng rng(5);
  Tree truth = random_yule_tree(10, rng);
  SimulateOptions options;
  options.num_sites = 500;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(10), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);
  ParsimonyOptions search_options;
  search_options.seed = 7;
  const ParsimonySearchResult result = parsimony_search(data, search_options);
  EXPECT_LE(robinson_foulds(result.tree, truth), 2);
  EXPECT_LE(result.score, fitch_score(truth, data) + 1e-9)
      << "search result must be at least as parsimonious as the true tree";
  EXPECT_GT(result.trees_scored, 50u);
}

TEST(Parsimony, SearchDeterministicForSeed) {
  Rng rng(5);
  Tree truth = random_yule_tree(8, rng);
  SimulateOptions options;
  options.num_sites = 200;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(8), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);
  ParsimonyOptions search_options;
  search_options.seed = 11;
  const auto a = parsimony_search(data, search_options);
  const auto b = parsimony_search(data, search_options);
  EXPECT_DOUBLE_EQ(a.score, b.score);
  EXPECT_EQ(robinson_foulds(a.tree, b.tree), 0);
}

// --- NJ ---

TEST(NeighborJoining, RecoversAdditiveDistancesExactly) {
  // A perfectly additive matrix from a known tree must be reconstructed
  // exactly, including branch lengths (NJ is consistent on additive input).
  const auto names = names_for(5);
  const Tree truth = tree_from_newick(
      "((t0:0.2,t1:0.3):0.15,(t2:0.25,t3:0.1):0.2,t4:0.4);", names);
  // Path-length matrix.
  std::vector<std::vector<double>> d(5, std::vector<double>(5, 0.0));
  for (int a = 0; a < 5; ++a) {
    for (int b = 0; b < 5; ++b) {
      if (a == b) continue;
      // BFS over the tree accumulating lengths.
      std::vector<std::pair<int, double>> stack{{a, 0.0}};
      std::vector<char> seen(static_cast<std::size_t>(truth.max_nodes()), 0);
      seen[static_cast<std::size_t>(a)] = 1;
      while (!stack.empty()) {
        const auto [node, dist] = stack.back();
        stack.pop_back();
        if (node == b) {
          d[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = dist;
          break;
        }
        for (int s = 0; s < 3; ++s) {
          const int nbr = truth.neighbor(node, s);
          if (nbr == Tree::kNoNode || seen[static_cast<std::size_t>(nbr)]) continue;
          seen[static_cast<std::size_t>(nbr)] = 1;
          stack.push_back({nbr, dist + truth.slot_length(node, s)});
        }
      }
    }
  }
  const Tree reconstructed = neighbor_joining(d, 5);
  EXPECT_EQ(robinson_foulds(reconstructed, truth), 0);
  EXPECT_NEAR(reconstructed.length(4, reconstructed.neighbor(4, 0)), 0.4, 1e-9);
}

TEST(NeighborJoining, RecoversSimulatedTopology) {
  Rng rng(13);
  Tree truth = random_yule_tree(12, rng);
  SimulateOptions options;
  options.num_sites = 2000;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(12), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);
  const Tree nj = neighbor_joining(data);
  nj.check_valid();
  EXPECT_LE(robinson_foulds(nj, truth), 2);
}

TEST(NeighborJoining, DistanceMatrixProperties) {
  Rng rng(17);
  Tree truth = random_yule_tree(6, rng);
  SimulateOptions options;
  options.num_sites = 500;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(6), SubstModel::jc69(),
                         RateModel::uniform(), options, rng);
  const PatternAlignment data(alignment);
  const auto d = jc_distance_matrix(data);
  for (std::size_t a = 0; a < 6; ++a) {
    EXPECT_DOUBLE_EQ(d[a][a], 0.0);
    for (std::size_t b = 0; b < 6; ++b) {
      EXPECT_DOUBLE_EQ(d[a][b], d[b][a]);
      EXPECT_GE(d[a][b], 0.0);
      EXPECT_LE(d[a][b], 5.0);
    }
  }
}

TEST(NeighborJoining, SaturatedPairsAreCapped) {
  Alignment alignment;
  // Two maximally divergent rows plus two close ones.
  alignment.add_sequence("t0", string_to_codes("ACGTACGTACGTACGTACGT"));
  alignment.add_sequence("t1", string_to_codes("CGTACGTACGTACGTACGTA"));
  alignment.add_sequence("t2", string_to_codes("ACGTACGTACGTACGTACGA"));
  alignment.add_sequence("t3", string_to_codes("ACGAACGTACGTACGTACGT"));
  const PatternAlignment data(alignment);
  const auto d = jc_distance_matrix(data, 5.0);
  EXPECT_DOUBLE_EQ(d[0][1], 5.0) << "100% mismatch saturates";
  EXPECT_LT(d[0][2], 0.2);
  const Tree tree = neighbor_joining(data);
  tree.check_valid();
}

}  // namespace
}  // namespace fdml
