#include "simcluster/workload.hpp"

#include <algorithm>
#include <set>

#include "likelihood/optimize.hpp"
#include "search/task_evaluator.hpp"
#include "tree/neighborhood.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {

WorkloadModel calibrate_workload(const PatternAlignment& data,
                                 const SubstModel& model, const RateModel& rates,
                                 int sample_tasks) {
  WorkloadModel out;
  TaskEvaluator evaluator(data, model, rates);
  Rng rng(12345);
  const int taxa = static_cast<int>(data.num_taxa());
  const double sites = static_cast<double>(data.num_sites());
  const double edges = static_cast<double>(2 * taxa - 3);

  double full_seconds = 0.0;
  double quick_seconds = 0.0;
  for (int k = 0; k < sample_tasks; ++k) {
    const Tree tree = random_tree(taxa, rng);
    TreeTask full;
    full.task_id = 1;
    full.newick = to_newick(tree, data.names(), 17);
    full.focus_taxon = -1;
    full_seconds += evaluator.evaluate(full).cpu_seconds;

    TreeTask quick = full;
    quick.focus_taxon = 0;
    quick_seconds += evaluator.evaluate(quick).cpu_seconds;
  }
  full_seconds /= sample_tasks;
  quick_seconds /= sample_tasks;

  // Smoothing usually converges before the pass cap; attribute the measured
  // time to ~half the nominal pass budget to stay conservative.
  const double effective_passes = 0.5 * kFullSmoothPasses;
  out.full_cost_coefficient =
      std::max(full_seconds / (sites * edges * effective_passes), 1e-12);
  out.quickadd_cost_coefficient = std::max(quick_seconds / sites, 1e-12);
  return out;
}

namespace {

double noisy(double mean, double cv, Rng& rng) {
  return cv > 0.0 ? rng.lognormal_mean_cv(mean, cv) : mean;
}

std::uint64_t task_bytes(int taxa_in_tree, const WorkloadModel& model) {
  return static_cast<std::uint64_t>(model.bytes_per_task_base +
                                    model.bytes_per_task_per_taxon *
                                        taxa_in_tree);
}

}  // namespace

SearchTrace synthesize_trace(int taxa, std::size_t sites, int cross,
                             const WorkloadModel& model, Rng& rng) {
  SearchTrace trace;
  trace.dataset = "synthetic";
  trace.num_taxa = taxa;
  trace.num_sites = sites;
  trace.num_patterns = sites;  // upper bound; costs already folded in
  const double s = static_cast<double>(sites);

  auto full_cost = [&](int taxa_in_tree) {
    const double edges = static_cast<double>(2 * taxa_in_tree - 3);
    return model.full_cost_coefficient * s * edges *
           (0.5 * kFullSmoothPasses);
  };
  auto quick_cost = [&]() { return model.quickadd_cost_coefficient * s; };

  // Reference topology for counting rearrangement candidates: enumerate the
  // real move generator on a random tree of the right size and deduplicate
  // by topology hash, exactly as the search does.
  auto rearrange_task_count = [&](int taxa_in_tree) {
    Tree tree = random_tree(taxa_in_tree, rng);
    std::set<std::uint64_t> seen{topology_hash(tree)};
    std::size_t distinct = 0;
    for (const SprMove& move : rearrangement_moves(tree, cross)) {
      Tree candidate = tree;
      const auto handle =
          candidate.prune_subtree(move.junction, move.subtree_neighbor);
      candidate.regraft(handle, move.target_u, move.target_v);
      if (seen.insert(topology_hash(candidate)).second) ++distinct;
    }
    return distinct;
  };

  // Initial 3-taxon optimization.
  {
    RoundTrace round;
    round.kind = RoundKind::kInitial;
    round.taxa_in_tree = 3;
    round.master_seconds = model.master_cost_per_candidate;
    round.task_cpu_seconds.push_back(noisy(full_cost(3), model.cost_noise_cv, rng));
    round.task_bytes.push_back(task_bytes(3, model));
    trace.rounds.push_back(std::move(round));
  }

  for (int i = 4; i <= taxa; ++i) {
    // Insertion round: 2i-5 quick-add candidates.
    {
      RoundTrace round;
      round.kind = RoundKind::kInsertion;
      round.taxa_in_tree = i;
      const int candidates = 2 * i - 5;
      round.master_seconds = model.master_cost_per_candidate * candidates;
      for (int c = 0; c < candidates; ++c) {
        round.task_cpu_seconds.push_back(noisy(quick_cost(), model.cost_noise_cv, rng));
        round.task_bytes.push_back(task_bytes(i, model));
      }
      trace.rounds.push_back(std::move(round));
    }
    // Winner round: one full smoothing.
    {
      RoundTrace round;
      round.kind = RoundKind::kWinner;
      round.taxa_in_tree = i;
      round.master_seconds = model.master_cost_per_candidate;
      round.task_cpu_seconds.push_back(noisy(full_cost(i), model.cost_noise_cv, rng));
      round.task_bytes.push_back(task_bytes(i, model));
      trace.rounds.push_back(std::move(round));
    }
    // Rearrangement rounds: at least one (which finds no improvement and
    // stops), plus a geometric number of improving rounds before it.
    if (cross > 0) {
      int rounds = 1;
      while (rng.uniform() < model.rearrange_accept_probability) ++rounds;
      for (int r = 0; r < rounds; ++r) {
        RoundTrace round;
        round.kind = RoundKind::kRearrange;
        round.taxa_in_tree = i;
        const std::size_t candidates = rearrange_task_count(i);
        if (candidates == 0) break;
        round.master_seconds =
            model.master_cost_per_candidate * static_cast<double>(candidates);
        for (std::size_t c = 0; c < candidates; ++c) {
          round.task_cpu_seconds.push_back(
              noisy(full_cost(i), model.cost_noise_cv, rng));
          round.task_bytes.push_back(task_bytes(i, model));
        }
        trace.rounds.push_back(std::move(round));
      }
    }
  }
  return trace;
}

}  // namespace fdml
