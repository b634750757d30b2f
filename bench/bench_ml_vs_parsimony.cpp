// Experiment: section 3.2's method comparison — "Parsimony methods are
// less computationally complex than maximum likelihood methods" (via Snell
// et al.), and the broader point that fastDNAml exists so biologists can
// afford to compare ML against cheaper methods on result quality.
//
// Reports per-tree evaluation cost (ML full optimization vs Fitch scoring
// vs one NJ construction) and end-to-end search quality (RF distance to the
// generating tree) for ML, parsimony, and NJ on the same simulated data.
#include <cstdio>

#include "fdml.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int taxa = static_cast<int>(args.get_int("taxa", 40));
  const std::size_t sites = static_cast<std::size_t>(args.get_int("sites", 600));
  const int reps = static_cast<int>(args.get_int("reps", 5));

  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(taxa, sites, 31, &truth);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);

  // --- per-tree cost ---
  Rng rng(7);
  TaskEvaluator ml(data, model, RateModel::uniform());
  double ml_seconds = 0.0;
  double fitch_seconds = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Tree tree = random_tree(taxa, rng);
    TreeTask task;
    task.newick = to_newick(tree, data.names(), 17);
    ml_seconds += ml.evaluate(task).cpu_seconds;
    CpuTimer timer;
    (void)fitch_score(tree, data);
    fitch_seconds += timer.seconds();
  }
  CpuTimer nj_timer;
  const Tree nj_tree = neighbor_joining(data);
  const double nj_seconds = nj_timer.seconds();

  std::printf("Per-tree evaluation cost (%d taxa x %zu sites, mean of %d)\n",
              taxa, sites, reps);
  std::printf("  ML (full branch optimization): %10.3f ms\n",
              1e3 * ml_seconds / reps);
  std::printf("  Parsimony (Fitch score):       %10.3f ms\n",
              1e3 * fitch_seconds / reps);
  std::printf("  ML / parsimony cost ratio:     %10.1fx\n",
              ml_seconds / fitch_seconds);
  std::printf("  NJ (whole tree, once):         %10.3f ms\n\n", 1e3 * nj_seconds);

  // --- end-to-end search quality ---
  CpuTimer ml_search_timer;
  SearchOptions ml_options;
  ml_options.seed = 3;
  SerialTaskRunner runner(data, model, RateModel::uniform());
  const SearchResult ml_result = StepwiseSearch(data, ml_options).run(runner);
  const double ml_search_seconds = ml_search_timer.seconds();
  const Tree ml_best = tree_from_newick(ml_result.best_newick, data.names());

  CpuTimer pars_timer;
  ParsimonyOptions pars_options;
  pars_options.seed = 3;
  const ParsimonySearchResult pars = parsimony_search(data, pars_options);
  const double pars_seconds = pars_timer.seconds();

  std::printf("End-to-end search vs the generating tree (RF in [0,%d])\n",
              2 * (taxa - 3));
  std::printf("%14s %12s %10s %16s\n", "method", "time", "RF", "score");
  std::printf("%14s %11.2fs %10d %16.2f (lnL)\n", "ML",
              ml_search_seconds, robinson_foulds(ml_best, truth),
              ml_result.best_log_likelihood);
  std::printf("%14s %11.2fs %10d %16.0f (changes)\n", "parsimony",
              pars_seconds, robinson_foulds(pars.tree, truth), pars.score);
  std::printf("%14s %11.2fs %10d %16s\n", "NJ", nj_seconds,
              robinson_foulds(nj_tree, truth), "-");
  std::printf("\nExpected shape: parsimony/NJ are orders of magnitude cheaper "
              "per tree;\nML matches or beats their topological accuracy.\n");
  return 0;
}
