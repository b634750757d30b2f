#include "search/task_evaluator.hpp"

#include <array>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "tree/newick.hpp"
#include "util/timer.hpp"

namespace fdml {

namespace {

/// The regraft junction of a marked task — the median of its three taxa,
/// the one node on all three paths between them — and the junction's
/// neighbour toward the first taxon (the moved subtree's root).
std::pair<int, int> regraft_junction(const Tree& tree,
                                     const std::array<int, 3>& taxa) {
  // Hang the tree from the first taxon.
  std::vector<int> parent(static_cast<std::size_t>(tree.max_nodes()),
                          Tree::kNoNode);
  std::vector<int> stack{taxa[0]};
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    for (int s = 0; s < 3; ++s) {
      const int nbr = tree.neighbor(node, s);
      if (nbr == Tree::kNoNode || nbr == parent[static_cast<std::size_t>(node)]) {
        continue;
      }
      parent[static_cast<std::size_t>(nbr)] = node;
      stack.push_back(nbr);
    }
  }
  // The third taxon climbs until it meets the second taxon's path up.
  std::vector<char> on_path(parent.size(), 0);
  for (int node = taxa[1]; node != Tree::kNoNode;
       node = parent[static_cast<std::size_t>(node)]) {
    on_path[static_cast<std::size_t>(node)] = 1;
  }
  int junction = taxa[2];
  while (!on_path[static_cast<std::size_t>(junction)]) {
    junction = parent[static_cast<std::size_t>(junction)];
  }
  return {junction, parent[static_cast<std::size_t>(junction)]};
}

/// The two neighbours of internal `node` other than `skip`, ordered by the
/// smallest taxon behind them — the same order in every parse of a tree.
std::pair<int, int> other_neighbors(const Tree& tree, int node, int skip) {
  int a = -1;
  int b = -1;
  for (int s = 0; s < 3; ++s) {
    const int nbr = tree.neighbor(node, s);
    if (nbr == skip || nbr == Tree::kNoNode) continue;
    (a < 0 ? a : b) = nbr;
  }
  if (min_taxon_behind(tree, a, node) > min_taxon_behind(tree, b, node)) {
    std::swap(a, b);
  }
  return {a, b};
}

/// Matches the subtree behind (na, from fa) of `ta` against the subtree
/// behind (nb, from fb) of `tb`: same shape under canonical min-taxon child
/// ordering, identical tip ids, bitwise-equal branch lengths. Fills
/// map[a-node] = b-node for every matched node.
bool match_subtrees(const Tree& ta, int na, int fa, const Tree& tb, int nb,
                    int fb, std::vector<int>& map) {
  if (ta.is_tip(na) || tb.is_tip(nb)) {
    if (!ta.is_tip(na) || !tb.is_tip(nb) || na != nb) return false;
    map[static_cast<std::size_t>(na)] = nb;
    return true;
  }
  map[static_cast<std::size_t>(na)] = nb;
  int ca[2] = {-1, -1};
  int cb[2] = {-1, -1};
  int ia = 0;
  int ib = 0;
  for (int s = 0; s < 3; ++s) {
    int nbr = ta.neighbor(na, s);
    if (nbr != fa && nbr != Tree::kNoNode && ia < 2) ca[ia++] = nbr;
    nbr = tb.neighbor(nb, s);
    if (nbr != fb && nbr != Tree::kNoNode && ib < 2) cb[ib++] = nbr;
  }
  if (ia != 2 || ib != 2) return false;
  if (min_taxon_behind(ta, ca[0], na) > min_taxon_behind(ta, ca[1], na)) {
    std::swap(ca[0], ca[1]);
  }
  if (min_taxon_behind(tb, cb[0], nb) > min_taxon_behind(tb, cb[1], nb)) {
    std::swap(cb[0], cb[1]);
  }
  for (int k = 0; k < 2; ++k) {
    // Bitwise length comparison: the context is only reusable if its CLVs
    // are exactly the CLVs this task's base tree would produce.
    if (ta.length(na, ca[k]) != tb.length(nb, cb[k])) return false;
    if (!match_subtrees(ta, ca[k], na, tb, cb[k], nb, map)) return false;
  }
  return true;
}

}  // namespace

TaskEvaluator::TaskEvaluator(const PatternAlignment& data, SubstModel model,
                             RateModel rates)
    : data_(data), evaluator_(data, std::move(model), std::move(rates)) {}

TaskResult TaskEvaluator::evaluate(const TreeTask& task) {
  if (task.screened()) return evaluate_screened(task);
  if (task.focus_taxon < 0) return evaluate_full(task);
  return evaluate_insertion(task);
}

bool TaskEvaluator::verify_against_context(const Tree& base) {
  const Tree& ctx = *ctx_base_;
  if (base.tip_count() != ctx.tip_count()) return false;
  const std::vector<int> tips = base.tips();
  if (tips.empty()) return false;
  const int root = tips.front();
  if (!ctx.contains(root)) return false;
  map_.assign(static_cast<std::size_t>(base.max_nodes()), -1);
  const int ja = base.neighbor(root, 0);
  const int jb = ctx.neighbor(root, 0);
  if (ja == Tree::kNoNode || jb == Tree::kNoNode) return false;
  if (base.length(root, ja) != ctx.length(root, jb)) return false;
  map_[static_cast<std::size_t>(root)] = root;
  return match_subtrees(base, ja, root, ctx, jb, root, map_);
}

void TaskEvaluator::rebuild_context(Tree&& base, std::uint64_t round_id) {
  ctx_base_.emplace(std::move(base));
  evaluator_.engine().attach(*ctx_base_);
  ctx_valid_ = true;
  ctx_round_ = round_id;
  map_.resize(static_cast<std::size_t>(ctx_base_->max_nodes()));
  std::iota(map_.begin(), map_.end(), 0);
}

TaskResult TaskEvaluator::evaluate_insertion(const TreeTask& task) {
  CpuTimer timer;
  Tree tree = tree_from_newick(task.newick, data_.names());
  const int tip = task.focus_taxon;
  if (tip >= tree.num_taxa() || !tree.contains(tip)) {
    throw std::invalid_argument("focus task: taxon " + std::to_string(tip) +
                                " is not in the tree");
  }
  if (tree.tip_count() < 4) {
    // A search's first insertion already adds the 4th taxon.
    throw std::invalid_argument("focus task: fewer than 4 tips");
  }
  const int junction = tree.neighbor(tip, 0);
  int u = -1;
  int v = -1;
  for (int s = 0; s < 3; ++s) {
    const int nbr = tree.neighbor(junction, s);
    if (nbr == tip || nbr == Tree::kNoNode) continue;
    (u < 0 ? u : v) = nbr;
  }

  Tree base = tree;
  base.remove_tip(tip);
  if (!(ctx_valid_ && ctx_round_ == task.round_id &&
        verify_against_context(base))) {
    rebuild_context(std::move(base), task.round_id);
  }

  // Splice the candidate into the context with the task's exact local
  // lengths. The base CLVs across the split edge are what the junction
  // combines; computing them before the snapshot keeps them valid for the
  // round's later candidates (the restore below would drop them otherwise).
  LikelihoodEngine& engine = evaluator_.engine();
  Tree& ctx = *ctx_base_;
  const int cu = map_[static_cast<std::size_t>(u)];
  const int cv = map_[static_cast<std::size_t>(v)];
  const double original_length = ctx.length(cu, cv);
  engine.ensure_edge_clvs(cu, cv);
  engine.save_clv_validity(ctx_validity_);
  const int cj = ctx.insert_tip(tip, cu, cv);
  engine.invalidate_node(cj);  // free-list id may carry stale flags
  ctx.set_length(cu, cj, tree.length(junction, u));
  ctx.set_length(cj, cv, tree.length(junction, v));
  ctx.set_length(tip, cj, tree.length(junction, tip));
  // Every CLV pointing away from the new tip edge now spans the tip.
  engine.on_length_changed(cj, tip);

  // Canonical local smoothing, then the canonical final evaluation: the
  // (tip, junction) edge exists in every representation of this candidate
  // with the same node ids (tip ids are taxon ids), unlike
  // log_likelihood()'s arbitrary internal root.
  const auto [a, b] = other_neighbors(ctx, cj, tip);
  evaluator_.optimizer().smooth_edges(ctx, {{cj, tip}, {cj, a}, {cj, b}},
                                      kQuickAddPasses);
  const double lnl = engine.log_likelihood_edge(tip, cj);

  // Write the optimized local lengths back into the parsed task tree — the
  // result stays in the task's own coordinate system, whichever context
  // scored it.
  tree.set_length(tip, junction, ctx.length(tip, cj));
  tree.set_length(junction, u, ctx.length(cj, cu));
  tree.set_length(junction, v, ctx.length(cj, cv));

  // Close the scope: the base tree and its cached CLVs come back verbatim
  // (the trial only wrote junction CLVs; see save_clv_validity docs).
  ctx.remove_tip(tip);
  ctx.set_length(cu, cv, original_length);
  engine.restore_clv_validity(ctx_validity_);

  return finish_result(task, lnl, tree, timer.seconds());
}

TaskResult TaskEvaluator::evaluate_screened(const TreeTask& task) {
  CpuTimer timer;
  if (!task.marker_well_formed()) {
    throw std::invalid_argument("regraft marker: malformed");
  }
  Tree tree = tree_from_newick(task.newick, data_.names());
  for (const int taxon : task.regraft_taxa) {
    if (taxon >= tree.num_taxa() || !tree.contains(taxon)) {
      throw std::invalid_argument("regraft marker: taxon " +
                                  std::to_string(taxon) +
                                  " is not in the tree");
    }
  }
  ctx_valid_ = false;  // the engine leaves the context tree
  evaluator_.engine().attach(tree);

  // The edges within two edges of the junction J: (J, r) toward the moved
  // subtree, (J, a) and (J, b) ordered by the smallest taxon behind them,
  // then each internal neighbour's two other edges in adjacency-slot order.
  const auto [junction, r] = regraft_junction(tree, task.regraft_taxa);
  const auto [a, b] = other_neighbors(tree, junction, r);
  std::vector<std::pair<int, int>> edges{{junction, r}, {junction, a},
                                         {junction, b}};
  for (const int node : {r, a, b}) {
    if (tree.is_tip(node)) continue;
    for (int s = 0; s < 3; ++s) {
      const int nbr = tree.neighbor(node, s);
      if (nbr != junction) edges.emplace_back(node, nbr);
    }
  }
  evaluator_.optimizer().smooth_edges(tree, edges, kQuickAddPasses);
  const double local_lnl = evaluator_.engine().log_likelihood_edge(r, junction);
  if (local_lnl < task.screen_lnl) {
    return finish_result(task, local_lnl, tree, timer.seconds());
  }
  // Passed the screen: smooth the whole candidate from the task's own
  // lengths, exactly as an unmarked task would.
  const double local_seconds = timer.seconds();
  TaskResult result = evaluate_full(task);
  result.cpu_seconds += local_seconds;
  return result;
}

TaskResult TaskEvaluator::evaluate_full(const TreeTask& task) {
  Tree tree = tree_from_newick(task.newick, data_.names());
  ctx_valid_ = false;  // evaluate() re-attaches the engine
  const Evaluation evaluation = evaluator_.evaluate(tree);
  return finish_result(task, evaluation.log_likelihood, tree,
                       evaluation.cpu_seconds);
}

TaskResult TaskEvaluator::finish_result(const TreeTask& task,
                                        double log_likelihood,
                                        const Tree& tree, double cpu_seconds) {
  TaskResult result;
  result.task_id = task.task_id;
  result.round_id = task.round_id;
  result.log_likelihood = log_likelihood;
  result.newick = to_newick(tree, data_.names(), 17);
  result.cpu_seconds = cpu_seconds;
  return result;
}

}  // namespace fdml
