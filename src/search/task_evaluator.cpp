#include "search/task_evaluator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
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
    : data_(data),
      evaluator_(data, std::move(model), std::move(rates)),
      batch_(evaluator_.engine()) {}

TaskResult TaskEvaluator::evaluate(const TreeTask& task) {
  std::vector<TaskResult> results = evaluate_batch({task});
  return std::move(results.front());
}

std::vector<TaskResult> TaskEvaluator::evaluate_batch(
    const std::vector<TreeTask>& tasks) {
  std::vector<TaskResult> results(tasks.size());
  std::vector<Candidate> chunk;
  chunk.reserve(kChunk);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TreeTask& task = tasks[i];
    if (task.screened()) {
      flush_chunk(chunk, results);
      results[i] = evaluate_screened(task);
      continue;
    }
    if (task.focus_taxon < 0) {
      flush_chunk(chunk, results);
      results[i] = evaluate_full(task);
      continue;
    }
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
    const double tip_length = tree.length(tip, junction);
    const double length_u = tree.length(junction, u);
    const double length_v = tree.length(junction, v);

    // A chunk shares one focus tip and round (one batched capture).
    if (!chunk.empty() && (chunk.front().task->focus_taxon != tip ||
                           chunk.front().task->round_id != task.round_id)) {
      flush_chunk(chunk, results);
    }

    Tree base = tree;
    base.remove_tip(tip);
    if (!(ctx_valid_ && ctx_round_ == task.round_id &&
          verify_against_context(base))) {
      // Pending candidates reference the old context's coordinates — score
      // them before swapping the engine onto this task's base tree.
      flush_chunk(chunk, results);
      rebuild_context(std::move(base), task.round_id);
    }
    chunk.push_back(Candidate{
        &task, i, std::move(tree), junction, u, v, tip_length,
        BatchEdgeEvaluator::Insertion{map_[static_cast<std::size_t>(u)],
                                      map_[static_cast<std::size_t>(v)],
                                      length_u, length_v}});
    if (chunk.size() >= kChunk) flush_chunk(chunk, results);
  }
  flush_chunk(chunk, results);
  return results;
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

void TaskEvaluator::flush_chunk(std::vector<Candidate>& chunk,
                                std::vector<TaskResult>& results) {
  if (chunk.empty()) return;
  CpuTimer timer;
  const int tip = chunk.front().task->focus_taxon;

  // Phase A: one shared traversal + one multi-edge capture per category,
  // then every candidate's first tip-edge solve off the hot planes.
  std::vector<BatchEdgeEvaluator::Insertion> insertions;
  insertions.reserve(chunk.size());
  for (const Candidate& c : chunk) insertions.push_back(c.insertion);
  batch_.capture_insertions(tip, insertions);

  std::vector<double> t1(chunk.size());
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    t1[k] = newton_branch_solve(batch_.view(k), chunk[k].tip_length);
  }
  const double phase_a_share =
      timer.seconds() / static_cast<double>(chunk.size());

  // Phase B: scoped insertion + local smoothing, one candidate at a time.
  for (std::size_t k = 0; k < chunk.size(); ++k) {
    results[chunk[k].result_index] =
        evaluate_candidate(chunk[k], t1[k], phase_a_share);
  }
  chunk.clear();
}

TaskResult TaskEvaluator::evaluate_candidate(Candidate& c, double t1,
                                             double phase_a_share) {
  LikelihoodEngine& engine = evaluator_.engine();
  CpuTimer timer;
  Tree& ctx = *ctx_base_;
  const TreeTask& task = *c.task;
  const int tip = task.focus_taxon;
  const BatchEdgeEvaluator::Insertion& ins = c.insertion;

  const double original_length = ctx.length(ins.u, ins.v);
  engine.save_clv_validity(ctx_validity_);

  // Splice the candidate in with the task's exact local lengths, then apply
  // the phase-A tip solve as if optimize_edge had just committed it. The
  // solve is bit-identical to what optimize_edge(junction, tip) on the
  // spliced tree would produce: same captured coefficients
  // (BatchEdgeEvaluator's determinism contract), same Newton sequence.
  const int junction = ctx.insert_tip(tip, ins.u, ins.v);
  engine.invalidate_node(junction);  // free-list id may carry stale flags
  ctx.set_length(ins.u, junction, ins.length_u);
  ctx.set_length(junction, ins.v, ins.length_v);
  ctx.set_length(tip, junction, t1);
  engine.on_length_changed(junction, tip);

  const double lnl = smooth_focus(ctx, tip, junction, c.tip_length);

  // Write the optimized local lengths back into the parsed task tree — the
  // result stays in the task's own coordinate system, whichever context
  // scored it.
  c.tree.set_length(tip, c.junction, ctx.length(tip, junction));
  c.tree.set_length(c.junction, c.u, ctx.length(junction, ins.u));
  c.tree.set_length(c.junction, c.v, ctx.length(junction, ins.v));

  // Close the scope: the base tree and its cached CLVs come back verbatim
  // (the trial only wrote junction CLVs; see save_clv_validity docs).
  ctx.remove_tip(tip);
  ctx.set_length(ins.u, ins.v, original_length);
  engine.restore_clv_validity(ctx_validity_);

  return finish_result(task, lnl, c.tree, timer.seconds() + phase_a_share);
}

double TaskEvaluator::smooth_focus(Tree& tree, int tip, int junction,
                                   double pass0_tip_before) {
  const auto [a, b] = other_neighbors(tree, junction, tip);
  BranchOptimizer& optimizer = evaluator_.optimizer();

  // Same pass/convergence semantics as BranchOptimizer::smooth_edges over
  // the canonical edge order [(junction, tip), (junction, a), (junction,
  // b)], with the batched precomputed solve standing in for pass 0's tip
  // edge.
  for (int pass = 0; pass < kQuickAddPasses; ++pass) {
    double worst_move = 0.0;
    double tip_before;
    double tip_after;
    if (pass == 0) {
      tip_before = pass0_tip_before;
      tip_after = tree.length(junction, tip);
    } else {
      tip_before = tree.length(junction, tip);
      tip_after = optimizer.optimize_edge(tree, junction, tip);
    }
    worst_move = std::max(worst_move, std::fabs(tip_after - tip_before) /
                                          std::max(tip_before, 1e-3));
    for (const int other : {a, b}) {
      const double len_before = tree.length(junction, other);
      const double len_after = optimizer.optimize_edge(tree, junction, other);
      worst_move = std::max(worst_move, std::fabs(len_after - len_before) /
                                            std::max(len_before, 1e-3));
    }
    if (worst_move < kSmoothTolerance) break;
  }
  // Canonical final evaluation: the (tip, junction) edge exists in every
  // representation of this candidate with the same node ids (tip ids are
  // taxon ids), unlike log_likelihood()'s arbitrary internal root.
  return evaluator_.engine().log_likelihood_edge(tip, junction);
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
