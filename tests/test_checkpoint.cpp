// Tests for search checkpoint/restart (fastDNAml's long-run survival
// feature) and the assigned-rates likelihood (fastDNAml's actual
// per-site-category semantics, completing the DNArates workflow).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include "likelihood/site_rates.hpp"
#include "model/simulate.hpp"
#include "search/search.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {
namespace {

struct Fixture {
  Fixture() : truth(3), alignment(make_paper_like_dataset(10, 250, 5, &truth)),
              data(alignment) {}
  Tree truth;
  Alignment alignment;
  PatternAlignment data;
};

TEST(Checkpoint, SaveLoadRoundTrip) {
  SearchCheckpoint checkpoint;
  checkpoint.seed = 42;
  checkpoint.addition_order = {3, 1, 4, 0, 2};
  checkpoint.next_order_index = 4;
  checkpoint.tree_newick = "(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);";
  checkpoint.log_likelihood = -123.456789012345;
  std::stringstream buffer;
  checkpoint.save(buffer);
  const SearchCheckpoint back = SearchCheckpoint::load(buffer);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.addition_order, checkpoint.addition_order);
  EXPECT_EQ(back.next_order_index, 4);
  EXPECT_EQ(back.tree_newick, checkpoint.tree_newick);
  EXPECT_DOUBLE_EQ(back.log_likelihood, checkpoint.log_likelihood);
}

TEST(Checkpoint, LoadRejectsGarbage) {
  std::stringstream buffer("not-a-checkpoint 7\n");
  EXPECT_THROW(SearchCheckpoint::load(buffer), std::runtime_error);
  std::stringstream truncated("fdml-checkpoint 3\n1 4 2\n0 1\n0 0 0\n0\n-10.0\n");
  EXPECT_THROW(SearchCheckpoint::load(truncated), std::runtime_error);
  // Only version 3 is read: it is the one the checkpoint store writes.
  std::stringstream old("fdml-checkpoint 2\n1 4 2\n0 1\n0 0 0\n-10.0\n(a,b,c);\n");
  EXPECT_THROW(SearchCheckpoint::load(old), std::runtime_error);
}

// The addition-order length is read from the file. A short text claiming
// 2^40 taxa must fail as a malformed checkpoint, without first reserving
// memory for the claim.
TEST(Checkpoint, OrderLengthIsNotTrusted) {
  std::stringstream huge(
      "fdml-checkpoint 3\n1 4 1099511627776\n0 1 2 3\n0 0 0\n0\n-10.5\n"
      "(a,b,(c,d));\n");
  EXPECT_THROW(SearchCheckpoint::load(huge), std::runtime_error);
  // A claim one entry longer than the order line is refused too.
  std::stringstream short_by_one(
      "fdml-checkpoint 3\n1 4 5\n0 1 2 3\n0 0 0\n0\n-10.5\n(a,b,(c,d));\n");
  EXPECT_THROW(SearchCheckpoint::load(short_by_one), std::runtime_error);
}

TEST(Checkpoint, ResumeReproducesUninterruptedRun) {
  Fixture fx;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fdml_ckpt_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "run.ckpt").string();

  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 9;
  options.checkpoint_path = path;

  // Uninterrupted run, writing checkpoints along the way. The file left on
  // disk is the *final* checkpoint.
  const SearchResult full = StepwiseSearch(fx.data, options).run(runner);
  const auto final_checkpoint = recover_checkpoint(path, 0);
  ASSERT_TRUE(final_checkpoint.has_value());
  EXPECT_EQ(final_checkpoint->checkpoint.next_order_index, 10);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // Mid-run state after 6 taxa: the same run, stopped at the checkpoint
  // that completes the sixth taxon's addition and rearrangement.
  SearchOptions stopping = options;
  stopping.stop_requested = [&path] {
    const auto newest = recover_checkpoint(path, 0);
    return newest.has_value() &&
           newest->checkpoint.phase == SearchPhase::kAddition &&
           newest->checkpoint.next_order_index == 6;
  };
  EXPECT_THROW(StepwiseSearch(fx.data, stopping).run(runner),
               SearchInterrupted);
  const auto mid = recover_checkpoint(path, 0);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(mid.has_value());
  ASSERT_EQ(mid->checkpoint.next_order_index, 6);
  EXPECT_EQ(mid->checkpoint.addition_order, full.addition_order);

  SearchOptions resume_options = options;
  resume_options.checkpoint_path.clear();
  const SearchResult resumed =
      StepwiseSearch(fx.data, resume_options).resume(runner, mid->checkpoint);

  EXPECT_DOUBLE_EQ(resumed.best_log_likelihood, full.best_log_likelihood);
  const Tree a = tree_from_newick(full.best_newick, fx.data.names());
  const Tree b = tree_from_newick(resumed.best_newick, fx.data.names());
  EXPECT_EQ(robinson_foulds(a, b), 0);
  EXPECT_LT(resumed.trees_evaluated, full.trees_evaluated)
      << "the resumed run skips the completed prefix";
}

TEST(Checkpoint, ResumeValidatesConsistency) {
  Fixture fx;
  SerialTaskRunner runner(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  StepwiseSearch search(fx.data, options);
  SearchCheckpoint bogus;
  bogus.addition_order = {0, 1, 2};  // wrong dataset size
  bogus.next_order_index = 3;
  bogus.tree_newick = "(T0001:1,T0002:1,T0003:1);";
  EXPECT_THROW(search.resume(runner, bogus), std::invalid_argument);

  SearchCheckpoint mismatched;
  mismatched.addition_order.resize(fx.data.num_taxa());
  for (std::size_t i = 0; i < mismatched.addition_order.size(); ++i) {
    mismatched.addition_order[i] = static_cast<int>(i);
  }
  mismatched.next_order_index = 5;  // but the tree has 3 tips
  mismatched.tree_newick = "(T0001:1,T0002:1,T0003:1);";
  EXPECT_THROW(search.resume(runner, mismatched), std::invalid_argument);
}

// --- assigned rates ---

TEST(AssignedRates, UniformAssignmentMatchesUniformModel) {
  Fixture fx;
  Rng rng(3);
  const Tree tree = random_tree(10, rng);
  LikelihoodEngine engine(fx.data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(tree);
  const std::vector<double> unit_rates(fx.data.num_sites(), 1.0);
  EXPECT_NEAR(assigned_rates_log_likelihood(tree, fx.data, SubstModel::jc69(),
                                            unit_rates),
              engine.log_likelihood(), 1e-7);
}

TEST(AssignedRates, EstimatedAssignmentBeatsMixtureOnItsOwnData) {
  // ML-estimated per-site rates maximize the assigned-rates likelihood by
  // construction, so it must dominate both the uniform model and any value
  // under perturbed assignments.
  Fixture fx;
  Rng rng(7);
  Tree tree = fx.truth;
  const SubstModel model = SubstModel::jc69();
  const SiteRateResult estimated = estimate_site_rates(tree, fx.data, model);
  const double at_ml =
      assigned_rates_log_likelihood(tree, fx.data, model, estimated.site_rates);
  const std::vector<double> unit_rates(fx.data.num_sites(), 1.0);
  const double at_unit =
      assigned_rates_log_likelihood(tree, fx.data, model, unit_rates);
  EXPECT_GE(at_ml, at_unit);

  std::vector<double> perturbed = estimated.site_rates;
  for (double& r : perturbed) r *= rng.uniform(0.5, 2.0);
  EXPECT_GE(at_ml, assigned_rates_log_likelihood(tree, fx.data, model, perturbed));
}

TEST(AssignedRates, CategorizedAssignmentApproachesPerSiteOptimum) {
  Fixture fx;
  Tree tree = fx.truth;
  const SubstModel model = SubstModel::jc69();
  const SiteRateResult estimated = estimate_site_rates(tree, fx.data, model);
  const double exact =
      assigned_rates_log_likelihood(tree, fx.data, model, estimated.site_rates);

  // Replace each site's ML rate by its category mean (fastDNAml workflow).
  const RateCategorization categorized = categorize_rates(estimated.site_rates, 12);
  std::vector<double> category_rates(fx.data.num_sites());
  for (std::size_t s = 0; s < category_rates.size(); ++s) {
    category_rates[s] = categorized.model.rate(
        static_cast<std::size_t>(categorized.site_category[s]));
  }
  // Note: RateModel::user renormalizes rates to mean 1, so compare against
  // the unnormalized optimum with generous slack: the categorized value
  // must land close below the exact per-site optimum.
  const double with_categories =
      assigned_rates_log_likelihood(tree, fx.data, model, category_rates);
  EXPECT_LE(with_categories, exact + 1e-9);
  EXPECT_GT(with_categories, exact - 0.1 * std::fabs(exact))
      << "12 categories should capture most of the per-site signal";
}

TEST(AssignedRates, RejectsWrongLength) {
  Fixture fx;
  Rng rng(3);
  const Tree tree = random_tree(10, rng);
  EXPECT_THROW(assigned_rates_log_likelihood(tree, fx.data, SubstModel::jc69(),
                                             {1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdml
