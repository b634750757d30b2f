// Tests for the tree substrate: structure and editing operations, Newick
// round trips, splits / Robinson-Foulds, consensus, topology counting and
// rearrangement enumeration.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <set>

#include "tree/consensus.hpp"
#include "tree/counting.hpp"
#include "tree/general_tree.hpp"
#include "tree/neighborhood.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"
#include "tree/tree.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

std::vector<std::string> names_for(int n) {
  std::vector<std::string> names(static_cast<std::size_t>(n), "t");
  for (int i = 0; i < n; ++i) names[static_cast<std::size_t>(i)] += std::to_string(i);
  return names;
}

TEST(Tree, TripletInvariants) {
  Tree tree(5);
  const int center = tree.make_triplet(0, 1, 2);
  tree.check_valid();
  EXPECT_EQ(tree.tip_count(), 3);
  EXPECT_EQ(tree.num_edges(), 3);
  EXPECT_TRUE(tree.adjacent(0, center));
  EXPECT_FALSE(tree.contains(3));
  EXPECT_EQ(tree.tips(), (std::vector<int>{0, 1, 2}));
}

TEST(Tree, InsertTipGrowsEdgeCount) {
  Tree tree(6);
  tree.make_triplet(0, 1, 2);
  for (int tip = 3; tip < 6; ++tip) {
    const auto edges = tree.edges();
    EXPECT_EQ(static_cast<int>(edges.size()), 2 * tip - 3)
        << "2n-3 edges before inserting tip " << tip;
    tree.insert_tip(tip, edges[0].first, edges[0].second);
    tree.check_valid();
  }
  EXPECT_EQ(tree.tip_count(), 6);
  EXPECT_EQ(tree.num_edges(), 9);
}

TEST(Tree, InsertPreservesPathLength) {
  Tree tree(4);
  tree.make_triplet(0, 1, 2, 0.5, 0.5, 0.3);
  const double before = tree.length(0, tree.neighbor(0, 0));
  const int mid = tree.insert_tip(3, 0, tree.neighbor(0, 0), 0.1, 0.25);
  const double left = tree.length(0, mid);
  const double right = tree.length(mid, tree.neighbor(0, 0) == mid
                                             ? tree.neighbor(mid, 1)
                                             : tree.neighbor(0, 0));
  EXPECT_NEAR(left + right, before, 1e-12);
  EXPECT_NEAR(left, 0.25 * before, 1e-12);
}

TEST(Tree, RemoveTipInvertsInsert) {
  Rng rng(77);
  Tree tree = random_tree(10, rng);
  tree.check_valid();
  const auto edges_before = tree.edges();
  const std::uint64_t hash_before = topology_hash(tree);
  // Insert is exercised by random_tree; removing a tip must restore counts.
  Tree grown = tree;
  // remove and reinsert tip 7 on the same edge; topology must return.
  const int attach = grown.neighbor(7, 0);
  int a = -1;
  int b = -1;
  for (int s = 0; s < 3; ++s) {
    const int nbr = grown.neighbor(attach, s);
    if (nbr == 7) continue;
    (a < 0 ? a : b) = nbr;
  }
  grown.remove_tip(7);
  grown.check_valid();
  EXPECT_EQ(grown.tip_count(), 9);
  grown.insert_tip(7, a, b);
  grown.check_valid();
  EXPECT_EQ(grown.edges().size(), edges_before.size());
  EXPECT_EQ(topology_hash(grown), hash_before);
}

TEST(Tree, RemoveTipRefusesToCollapse) {
  Tree tree(4);
  tree.make_triplet(0, 1, 2);
  EXPECT_THROW(tree.remove_tip(0), std::logic_error);
}

TEST(Tree, RegraftIntoTheClosedEdgeRestoresTopology) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const Tree tree = random_tree(12, rng);
    // Pick a random internal junction and subtree side.
    std::vector<std::pair<int, int>> choices;
    for (int j = tree.num_taxa(); j < tree.max_nodes(); ++j) {
      if (!tree.contains(j)) continue;
      for (int s = 0; s < 3; ++s) choices.emplace_back(j, tree.neighbor(j, s));
    }
    const auto [junction, side] = choices[rng.below(choices.size())];
    Tree moved = tree;
    const auto handle = moved.prune_subtree(junction, side);
    EXPECT_EQ(moved.length(handle.left, handle.right),
              tree.length(junction, handle.left) +
                  tree.length(junction, handle.right));
    moved.regraft(handle, handle.left, handle.right);
    moved.check_valid();
    EXPECT_EQ(topology_hash(moved), topology_hash(tree));
  }
}

TEST(Tree, RegraftOnCopiesReachesADistinctTreePerEdge) {
  Rng rng(321);
  const Tree tree = random_tree(10, rng);
  const std::uint64_t original = topology_hash(tree);
  const int junction = tree.any_internal();
  const int side = tree.neighbor(junction, 0);
  Tree pruned_tree = tree;
  const auto handle = pruned_tree.prune_subtree(junction, side);
  // Valid regraft targets are edges of the *remaining* component — mark the
  // pruned component (junction + subtree) and skip edges touching it.
  std::vector<char> pruned(static_cast<std::size_t>(tree.max_nodes()), 0);
  std::vector<int> stack{junction};
  pruned[static_cast<std::size_t>(junction)] = 1;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (int s = 0; s < 3; ++s) {
      const int nbr = pruned_tree.neighbor(node, s);
      if (nbr == Tree::kNoNode || pruned[static_cast<std::size_t>(nbr)]) continue;
      pruned[static_cast<std::size_t>(nbr)] = 1;
      stack.push_back(nbr);
    }
  }
  std::set<std::uint64_t> topologies;
  int targets = 0;
  for (const auto& [u, v] : pruned_tree.edges()) {
    if (pruned[static_cast<std::size_t>(u)] || pruned[static_cast<std::size_t>(v)]) {
      continue;
    }
    Tree candidate = pruned_tree;
    candidate.regraft(handle, u, v);
    candidate.check_valid();
    EXPECT_EQ(candidate.tip_count(), 10);
    topologies.insert(topology_hash(candidate));
    ++targets;
  }
  EXPECT_EQ(static_cast<int>(topologies.size()), targets);
  EXPECT_EQ(topologies.count(original), 1u) << "one target is the old edge";
}

TEST(Tree, CollectSubtreeTips) {
  Tree tree(5);
  const int c = tree.make_triplet(0, 1, 2);
  const int m = tree.insert_tip(3, 0, c);
  std::vector<int> tips;
  tree.collect_subtree_tips(m, c, tips);
  std::set<int> got(tips.begin(), tips.end());
  EXPECT_EQ(got, (std::set<int>{0, 3}));
}

TEST(RandomTree, UniformTopologyIsValidAtManySizes) {
  Rng rng(5);
  for (int n : {3, 4, 5, 8, 16, 33, 64}) {
    Tree tree = random_tree(n, rng);
    tree.check_valid();
    EXPECT_EQ(tree.tip_count(), n);
    EXPECT_EQ(tree.num_edges(), 2 * n - 3);
  }
}

TEST(RandomTree, YuleTreeIsValid) {
  Rng rng(6);
  Tree tree = random_yule_tree(40, rng);
  tree.check_valid();
  EXPECT_EQ(tree.tip_count(), 40);
}

// --- Newick ---

TEST(Newick, ParsesBasicRootedTree) {
  const GeneralTree tree = parse_newick("((a:1,b:2):0.5,c:3);");
  EXPECT_EQ(tree.leaf_count(), 3u);
  EXPECT_DOUBLE_EQ(tree.max_depth(), 3.0);
}

TEST(Newick, ParsesQuotedLabelsAndComments) {
  const GeneralTree tree =
      parse_newick("('taxon one':1,[comment [nested]](b:1,'it''s':2)0.9:1);");
  const auto leaves = tree.leaves();
  EXPECT_EQ(leaves.size(), 3u);
  EXPECT_EQ(tree.node(leaves[0]).label, "taxon one");
  EXPECT_EQ(tree.node(leaves[2]).label, "it's");
}

TEST(Newick, RejectsMalformed) {
  EXPECT_THROW(parse_newick("((a,b);"), std::runtime_error);
  EXPECT_THROW(parse_newick("(a,,b);"), std::runtime_error);
  EXPECT_THROW(parse_newick("(a:1,b:xyz);"), std::runtime_error);
}

TEST(Newick, UnrootedRoundTripPreservesTopologyAndLengths) {
  Rng rng(9);
  const auto names = names_for(12);
  for (int trial = 0; trial < 8; ++trial) {
    Tree tree = random_tree(12, rng);
    const std::string text = to_newick(tree, names, 17);
    const Tree back = tree_from_newick(text, names);
    EXPECT_EQ(robinson_foulds(tree, back), 0) << text;
    // Lengths survive bit for bit — serial, thread and socket runs agree
    // only because the 17-digit round trip is exact. Compare the sorted
    // multisets of all branch lengths.
    std::multiset<double> la;
    std::multiset<double> lb;
    for (const auto& [u, v] : tree.edges()) la.insert(tree.length(u, v));
    for (const auto& [u, v] : back.edges()) lb.insert(back.length(u, v));
    EXPECT_EQ(la, lb) << text;
  }
}

/// The unrooted writer's walk, with every length printed by snprintf.
void write_with_printf(const Tree& tree, int node, int from,
                       const std::vector<std::string>& names, int precision,
                       std::string& out) {
  if (tree.is_tip(node)) {
    out += names[static_cast<std::size_t>(node)];
  } else {
    out += '(';
    bool first = true;
    for (int s = 0; s < 3; ++s) {
      const int next = tree.neighbor(node, s);
      if (next == Tree::kNoNode || next == from) continue;
      if (!first) out += ',';
      first = false;
      write_with_printf(tree, next, node, names, precision, out);
    }
    out += ')';
  }
  if (from >= 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ":%.*g", precision,
                  tree.length(from, node));
    out += buf;
  }
}

// Every Newick, checkpoint and --out file is byte-identical to what printf's
// "%.*g" wrote, at the precisions the program writes: 17 (tasks and
// checkpoints), 10 (--out) and 6 (support values).
TEST(Newick, LengthTextMatchesPrintf) {
  const auto names = names_for(12);
  const double special[] = {0.0,
                            1e-8,
                            std::numeric_limits<double>::denorm_min(),
                            2.5e-310,  // subnormal
                            std::numeric_limits<double>::min(),
                            0.1,
                            1.0 / 3.0,
                            123456.789,
                            1e17,
                            1.5e300,
                            std::numeric_limits<double>::max()};
  Rng rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    Tree tree = random_tree(12, rng);
    std::size_t i = static_cast<std::size_t>(trial);
    for (const auto& [u, v] : tree.edges()) {
      // Half the edges take a special value, the rest a random mantissa
      // over a wide exponent range.
      const double length =
          i % 2 == 0 ? special[(i / 2) % std::size(special)]
                     : std::ldexp(std::generate_canonical<double, 53>(rng),
                                  static_cast<int>(rng() % 120) - 60);
      tree.set_length(u, v, length);
      ++i;
    }
    for (const int precision : {17, 10, 6}) {
      std::string expected;
      write_with_printf(tree, tree.any_internal(), -1, names, precision,
                        expected);
      expected += ';';
      EXPECT_EQ(to_newick(tree, names, precision), expected);
    }
  }
}

TEST(Newick, RootedInputIsUnrooted) {
  const auto names = names_for(4);
  const Tree tree = tree_from_newick("((t0:1,t1:1):0.5,(t2:1,t3:1):0.5);", names);
  tree.check_valid();
  EXPECT_EQ(tree.tip_count(), 4);
  EXPECT_EQ(tree.num_edges(), 5);
}

TEST(Newick, UnknownTaxonThrows) {
  EXPECT_THROW(tree_from_newick("(bogus:1,t1:1,t2:1);", names_for(3)),
               std::runtime_error);
}

TEST(Newick, SubsetOfTaxaIsAllowed) {
  // Stepwise-addition tasks serialize trees over a subset of the taxon set.
  const auto names = names_for(10);
  const Tree tree = tree_from_newick("(t0:1,t5:1,(t7:1,t9:2):1);", names);
  EXPECT_EQ(tree.tip_count(), 4);
  EXPECT_TRUE(tree.contains(9));
  EXPECT_FALSE(tree.contains(1));
}

// --- splits / RF ---

TEST(Splits, CountsAndOrientation) {
  const auto names = names_for(6);
  const Tree tree = tree_from_newick(
      "((t0:1,t1:1):1,(t2:1,t3:1):1,(t4:1,t5:1):1);", names);
  const auto splits = tree_splits(tree);
  EXPECT_EQ(splits.size(), 3u) << "n-3 nontrivial splits";
  int pairs = 0;
  for (const auto& split : splits) {
    EXPECT_FALSE(split.test(0)) << "canonical side excludes the lowest taxon";
    // Each split separates a cherry: its canonical side has 2 taxa, except
    // the {t0,t1} cherry which is stored as its 4-taxon complement.
    EXPECT_TRUE(split.count() == 2 || split.count() == 4);
    if (split.count() == 2) ++pairs;
  }
  EXPECT_EQ(pairs, 2);
}

TEST(Splits, CompatibilityWithinOneTree) {
  Rng rng(31);
  const Tree tree = random_tree(20, rng);
  const auto splits = tree_splits(tree);
  for (std::size_t i = 0; i < splits.size(); ++i) {
    for (std::size_t j = i + 1; j < splits.size(); ++j) {
      EXPECT_TRUE(splits[i].compatible_with(splits[j]));
    }
  }
}

TEST(Splits, RobinsonFouldsAxioms) {
  Rng rng(13);
  const Tree a = random_tree(16, rng);
  const Tree b = random_tree(16, rng);
  const Tree c = random_tree(16, rng);
  EXPECT_EQ(robinson_foulds(a, a), 0);
  EXPECT_EQ(robinson_foulds(a, b), robinson_foulds(b, a));
  EXPECT_LE(robinson_foulds(a, c), robinson_foulds(a, b) + robinson_foulds(b, c))
      << "triangle inequality";
  EXPECT_LE(robinson_foulds_normalized(a, b), 1.0);
}

TEST(Splits, NniChangesRfByTwo) {
  Rng rng(17);
  Tree tree = random_tree(10, rng);
  const Tree original = tree;
  // One NNI: prune a subtree and regraft across one internal vertex.
  const auto moves = rearrangement_moves(tree, 1);
  ASSERT_FALSE(moves.empty());
  bool found_nni = false;
  for (const auto& move : moves) {
    Tree candidate = tree;
    const auto handle = candidate.prune_subtree(move.junction, move.subtree_neighbor);
    candidate.regraft(handle, move.target_u, move.target_v);
    candidate.check_valid();
    const int rf = robinson_foulds(original, candidate);
    EXPECT_GE(rf, 0);
    EXPECT_LE(rf, 2) << "crossing one vertex changes at most one split";
    if (rf == 2) found_nni = true;
  }
  EXPECT_TRUE(found_nni);
}

TEST(Splits, TopologyHashInsensitiveToLengthsAndRepresentation) {
  const auto names = names_for(5);
  const Tree a = tree_from_newick("(t0:1,(t1:2,(t2:3,t3:4):5):6,t4:7);", names);
  const Tree b = tree_from_newick("((t3:9,t2:9):9,(t0:9,t4:9):9,t1:9);", names);
  EXPECT_EQ(robinson_foulds(a, b), 0);
  EXPECT_EQ(topology_hash(a), topology_hash(b));
}

TEST(Splits, TopologyHashSeparatesDifferentTopologies) {
  const auto names = names_for(5);
  const Tree a = tree_from_newick("(t0:1,(t1:1,(t2:1,t3:1):1):1,t4:1);", names);
  const Tree b = tree_from_newick("(t0:1,(t2:1,(t1:1,t3:1):1):1,t4:1);", names);
  EXPECT_NE(topology_hash(a), topology_hash(b));
}

// --- counting ---

TEST(Counting, MatchesPaperFigures) {
  // The paper quotes 2.8e74 (50 taxa), 1.7e182 (100 taxa) and "4.2e284"
  // (150 taxa). The 150-taxon exponent is a typo in the paper: (2*150-5)!!
  // = 4.2e301 — the mantissa matches, the exponent doesn't (the 50- and
  // 100-taxon values confirm the formula).
  EXPECT_NEAR(count_unrooted_topologies(50).log10(), std::log10(2.8) + 74, 0.05);
  EXPECT_NEAR(count_unrooted_topologies(100).log10(), std::log10(1.7) + 182, 0.05);
  EXPECT_NEAR(count_unrooted_topologies(150).log10(), std::log10(4.2) + 301, 0.05);
}

TEST(Counting, SmallCasesExact) {
  EXPECT_NEAR(count_unrooted_topologies(3).value(), 1.0, 1e-9);
  EXPECT_NEAR(count_unrooted_topologies(4).value(), 3.0, 1e-9);
  EXPECT_NEAR(count_unrooted_topologies(5).value(), 15.0, 1e-9);
  EXPECT_NEAR(count_unrooted_topologies(6).value(), 105.0, 1e-7);
  EXPECT_NEAR(count_rooted_topologies(3).value(), 3.0, 1e-9);
  EXPECT_NEAR(count_rooted_topologies(4).value(), 15.0, 1e-9);
}

TEST(Counting, InsertionPointsFormula) {
  // Adding the i-th taxon offers 2i-5 branches (paper step 3).
  EXPECT_EQ(insertion_points(4), 3);
  EXPECT_EQ(insertion_points(10), 15);
  // Cross-check against the actual tree: edges before inserting tip i
  // number 2(i-1)-3 = 2i-5.
  Rng rng(3);
  for (int i = 4; i <= 12; ++i) {
    Tree tree = random_tree(i - 1, rng);
    EXPECT_EQ(static_cast<int>(tree.edges().size()), insertion_points(i));
  }
}

// --- rearrangement enumeration ---

class RearrangementCount : public ::testing::TestWithParam<int> {};

TEST_P(RearrangementCount, DistinctTopologiesAtKOneIsTwoNMinusSix) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  Tree tree = random_tree(n, rng);
  const std::uint64_t original = topology_hash(tree);
  std::set<std::uint64_t> seen;
  for (const auto& move : rearrangement_moves(tree, 1)) {
    Tree candidate = tree;
    const auto handle = candidate.prune_subtree(move.junction, move.subtree_neighbor);
    candidate.regraft(handle, move.target_u, move.target_v);
    candidate.check_valid();
    const std::uint64_t hash = topology_hash(candidate);
    if (hash != original) seen.insert(hash);
  }
  // The paper: "By default one internal node is crossed, in which case
  // (2i-6) topologically different trees result."
  EXPECT_EQ(static_cast<int>(seen.size()), 2 * n - 6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RearrangementCount,
                         ::testing::Values(4, 5, 6, 8, 10, 15, 25));

TEST(Rearrangement, LargerCrossingsSearchMoreTopologies) {
  Rng rng(44);
  Tree tree = random_tree(12, rng);
  std::size_t previous = 0;
  for (int k = 1; k <= 4; ++k) {
    std::set<std::uint64_t> seen;
    const std::uint64_t original = topology_hash(tree);
    for (const auto& move : rearrangement_moves(tree, k)) {
      Tree candidate = tree;
      const auto handle =
          candidate.prune_subtree(move.junction, move.subtree_neighbor);
      candidate.regraft(handle, move.target_u, move.target_v);
      const std::uint64_t hash = topology_hash(candidate);
      if (hash != original) seen.insert(hash);
    }
    EXPECT_GT(seen.size(), previous) << "k=" << k;
    previous = seen.size();
  }
}

TEST(Rearrangement, TargetsExcludeOriginalPosition) {
  Rng rng(55);
  Tree tree = random_tree(10, rng);
  for (const auto& move : rearrangement_moves(tree, 2)) {
    EXPECT_FALSE((move.target_u == move.junction || move.target_v == move.junction));
  }
}

// --- consensus ---

TEST(Consensus, IdenticalTreesGiveFullyResolvedConsensus) {
  Rng rng(66);
  const Tree tree = random_tree(10, rng);
  const auto names = names_for(10);
  const std::vector<Tree> trees{tree, tree, tree};
  const GeneralTree consensus = consensus_tree(trees, names);
  EXPECT_EQ(consensus.leaf_count(), 10u);
  // Fully resolved rooted display of an unrooted n-leaf binary tree:
  // n-3 internal (split) nodes below the root.
  int internal = 0;
  for (int id : consensus.preorder()) {
    if (!consensus.is_leaf(id) && id != consensus.root()) ++internal;
  }
  EXPECT_EQ(internal, 7);
  for (int id : consensus.preorder()) {
    if (!consensus.is_leaf(id) && id != consensus.root()) {
      EXPECT_DOUBLE_EQ(consensus.node(id).support, 1.0);
    }
  }
}

TEST(Consensus, MajorityRuleKeepsMajorSplitsOnly) {
  const auto names = names_for(6);
  // Two topologies agree on split {t4,t5}; a third disagrees everywhere else.
  const Tree a = tree_from_newick(
      "((t0:1,t1:1):1,(t2:1,t3:1):1,(t4:1,t5:1):1);", names);
  const Tree b = tree_from_newick(
      "((t0:1,t2:1):1,(t1:1,t3:1):1,(t4:1,t5:1):1);", names);
  const Tree c = tree_from_newick(
      "((t0:1,t3:1):1,(t1:1,t2:1):1,(t4:1,t5:1):1);", names);
  const auto freqs = split_frequencies({a, b, c});
  ASSERT_FALSE(freqs.empty());
  EXPECT_DOUBLE_EQ(freqs.front().frequency, 1.0);
  const GeneralTree consensus = consensus_tree({a, b, c}, names);
  // Only the unanimous {t4,t5} split survives majority rule.
  int internal = 0;
  for (int id : consensus.preorder()) {
    if (!consensus.is_leaf(id) && id != consensus.root()) ++internal;
  }
  EXPECT_EQ(internal, 1);
}

TEST(Consensus, StrictConsensusIsSubsetOfMajority) {
  Rng rng(88);
  std::vector<Tree> trees;
  for (int i = 0; i < 5; ++i) trees.push_back(random_tree(8, rng));
  trees.push_back(trees.front());
  const auto names = names_for(8);
  const GeneralTree strict = strict_consensus(trees, names);
  const GeneralTree majority = consensus_tree(trees, names);
  auto count_internal = [](const GeneralTree& t) {
    int n = 0;
    for (int id : t.preorder()) {
      if (!t.is_leaf(id) && id != t.root()) ++n;
    }
    return n;
  };
  EXPECT_LE(count_internal(strict), count_internal(majority));
}

TEST(Consensus, MismatchedTaxaThrow) {
  Rng rng(99);
  Tree a = random_tree(6, rng);
  Tree b(6);
  b.make_triplet(0, 1, 2);
  b.insert_tip(3, 0, b.neighbor(0, 0));
  b.insert_tip(4, 1, b.neighbor(1, 0));
  EXPECT_THROW(split_frequencies({a, b}), std::invalid_argument);
}

// --- GeneralTree / canonicalize ---

TEST(GeneralTree, CanonicalizeNormalizesBranchOrder) {
  // Same topology drawn with reversed branch orderings — the paper's viewer
  // pivots subtrees to show they are identical.
  GeneralTree a = parse_newick("((b:1,a:1):1,(d:1,c:1):1);");
  GeneralTree b = parse_newick("((c:1,d:1):1,(a:1,b:1):1);");
  a.canonicalize();
  b.canonicalize();
  EXPECT_EQ(to_newick(a), to_newick(b));
}

TEST(GeneralTree, FromTreeRoundTrip) {
  Rng rng(111);
  const Tree tree = random_tree(9, rng);
  const auto names = names_for(9);
  const GeneralTree general = GeneralTree::from_tree(tree, names);
  EXPECT_EQ(general.leaf_count(), 9u);
  const Tree back = tree_from_newick(to_newick(general), names);
  EXPECT_EQ(robinson_foulds(tree, back), 0);
}


TEST(Newick, SupportValuesRoundTrip) {
  GeneralTree tree = parse_newick("((a:1,b:1)0.93:0.5,c:1,d:1);");
  int supported = 0;
  for (int id : tree.preorder()) {
    if (!std::isnan(tree.node(id).support)) {
      ++supported;
      EXPECT_DOUBLE_EQ(tree.node(id).support, 0.93);
    }
  }
  EXPECT_EQ(supported, 1);
  const std::string out = to_newick(tree);
  EXPECT_NE(out.find("0.93"), std::string::npos);
  // And it parses back with the support intact.
  const GeneralTree back = parse_newick(out);
  int reparsed = 0;
  for (int id : back.preorder()) {
    if (!std::isnan(back.node(id).support)) ++reparsed;
  }
  EXPECT_EQ(reparsed, 1);
}

TEST(GeneralTree, FromTreeWithSubsetOfTaxa) {
  // Stepwise-addition intermediate trees cover a subset of the taxon ids;
  // the rooted view must still work.
  const auto names = names_for(10);
  const Tree tree = tree_from_newick("(t1:1,t5:1,(t7:1,t9:2):1);", names);
  const GeneralTree general = GeneralTree::from_tree(tree, names);
  EXPECT_EQ(general.leaf_count(), 4u);
  const Tree back = tree_from_newick(to_newick(general), names);
  EXPECT_EQ(robinson_foulds(tree, back), 0);
}

TEST(Splits, SubsetAndCompatibilityExplicitCases) {
  const auto names = names_for(6);
  const Tree tree = tree_from_newick(
      "((t1:1,(t2:1,t3:1):1):1,t0:1,(t4:1,t5:1):1);", names);
  const auto splits = tree_splits(tree);
  ASSERT_EQ(splits.size(), 3u);
  // Find the nested pair: {t2,t3} subset of {t1,t2,t3}.
  const Split* small = nullptr;
  const Split* large = nullptr;
  for (const auto& split : splits) {
    if (split.count() == 2 && split.test(2) && split.test(3)) small = &split;
    if (split.count() == 3) large = &split;
  }
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  EXPECT_TRUE(small->subset_of(*large));
  EXPECT_FALSE(large->subset_of(*small));
  EXPECT_TRUE(small->compatible_with(*large));
}

TEST(Tree, EdgesAreSortedAndSymmetric) {
  Rng rng(99);
  const Tree tree = random_tree(15, rng);
  for (const auto& [u, v] : tree.edges()) {
    EXPECT_LT(u, v);
    EXPECT_TRUE(tree.adjacent(u, v));
    EXPECT_TRUE(tree.adjacent(v, u));
    EXPECT_DOUBLE_EQ(tree.length(u, v), tree.length(v, u));
  }
}

}  // namespace
}  // namespace fdml
