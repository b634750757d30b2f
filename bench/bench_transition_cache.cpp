// Observability benchmark for the likelihood kernel layer: transition-cache
// effectiveness, scratch-arena reuse and time spent inside the kernels under
// a realistic branch-smoothing workload, plus raw edge-evaluation
// throughput with a warm cache. These counters back the claim that the hot
// path is allocation-free and dominated by cached transition lookups.
#include <chrono>
#include <cstdio>

#include "fdml.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int passes = static_cast<int>(args.get_int("passes", 3));
  const int evals = static_cast<int>(args.get_int("evals", 20000));

  std::printf("Transition-cache and scratch-arena counters, full smoothing "
              "workload (F84, uniform rates, %d passes)\n", passes);
  std::printf("%6s %9s %10s %10s %9s %11s %10s %10s\n", "taxa", "patterns",
              "P(t) hits", "misses", "hit rate", "scratch MB", "kernel ms",
              "CLV comps");

  struct Case {
    int taxa;
    std::size_t sites;
  };
  for (const Case c : {Case{20, 500}, Case{50, 1858}, Case{150, 1269}}) {
    const Alignment alignment = make_paper_like_dataset(c.taxa, c.sites, 99);
    const PatternAlignment data(alignment);
    const SubstModel model =
        SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
    LikelihoodEngine engine(data, model, RateModel::uniform());
    Rng rng(5);
    Tree tree = random_tree(c.taxa, rng);
    engine.attach(tree);
    BranchOptimizer optimizer(engine);
    optimizer.smooth(tree, passes);

    const KernelCounters k = engine.counters();
    std::printf("%6d %9zu %10llu %10llu %8.1f%% %11.1f %10.1f %10llu\n",
                c.taxa, data.num_patterns(),
                static_cast<unsigned long long>(k.transition_hits),
                static_cast<unsigned long long>(k.transition_misses),
                100.0 * k.transition_hit_rate(),
                static_cast<double>(k.scratch_bytes_reused) / (1024.0 * 1024.0),
                static_cast<double>(k.kernel_ns) / 1e6,
                static_cast<unsigned long long>(k.clv_computations));
  }

  // Raw derivatives() throughput: one captured edge, cycling branch
  // lengths — the Newton inner loop with nothing else in the way.
  {
    const Alignment alignment = make_paper_like_dataset(50, 1858, 99);
    const PatternAlignment data(alignment);
    const SubstModel model =
        SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
    LikelihoodEngine engine(data, model, RateModel::uniform());
    Rng rng(5);
    Tree tree = random_tree(50, rng);
    engine.attach(tree);
    const auto [u, v] = tree.edges()[5];
    const EdgeLikelihood f = engine.edge_likelihood(u, v);
    engine.transition_cache().reset_stats();

    double sink = 0.0;
    double t = 0.05;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < evals; ++i) {
      sink += f.derivatives(t).d1;
      t = t < 0.5 ? t + 1e-4 : 0.05;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf("\nEdge evaluation, 50 taxa / %zu patterns, warm cache: "
                "%d evals in %.3f s = %.0f evals/s (hit rate %.1f%%)\n",
                data.num_patterns(), evals, seconds,
                static_cast<double>(evals) / seconds,
                100.0 * engine.transition_cache().hit_rate());
    (void)sink;
  }
  return 0;
}
