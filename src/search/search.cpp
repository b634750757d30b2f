#include "search/search.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "durable/checkpoint_store.hpp"
#include "durable/frame.hpp"
#include "obs/trace.hpp"
#include "tree/neighborhood.hpp"
#include "tree/newick.hpp"
#include "tree/splits.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fdml {

namespace {

class SearchRun {
 public:
  SearchRun(const PatternAlignment& data, const SearchOptions& options,
            TaskRunner& runner)
      : data_(data), options_(options), runner_(runner), names_(data.names()) {
    if (!options_.checkpoint_path.empty()) {
      CheckpointStoreOptions store_options;
      store_options.keep = options_.checkpoint_keep;
      store_.emplace(options_.checkpoint_path, store_options, options_.vfs);
    }
  }

  SearchResult run(std::vector<int> order,
                   const SearchCheckpoint* checkpoint = nullptr) {
    const int n = static_cast<int>(data_.num_taxa());
    if (static_cast<int>(order.size()) != n) {
      throw std::invalid_argument("search: addition order size mismatch");
    }
    result_.addition_order = order;
    result_.trace.dataset = "";
    result_.trace.num_taxa = n;

    Tree tree(n);
    double lnl = 0.0;
    int start_index = 3;
    master_timer_.reset();
    if (checkpoint != nullptr) {
      tree = tree_from_newick(checkpoint->tree_newick, names_);
      lnl = checkpoint->log_likelihood;
      start_index = checkpoint->next_order_index;
      if (tree.tip_count() != start_index) {
        throw std::invalid_argument(
            "resume: checkpoint tree has " +
            std::to_string(tree.tip_count()) +
            " tips but its next_order_index says " +
            std::to_string(start_index) +
            " taxa should be placed — the checkpoint is internally "
            "inconsistent");
      }
      publish_best(lnl);
      if (checkpoint->phase == SearchPhase::kRearrange) {
        // The run died mid-rearrangement: finish that stage first, picking
        // up the exact round counter and crossing distance it left off at.
        const int idx = start_index - 1;
        const bool last = idx == n - 1;
        const int cross =
            last ? options_.final_rearrange_cross : options_.rearrange_cross;
        lnl = rearrange_until_stable(tree, lnl, cross, start_index,
                                     checkpoint->rearrange_rounds_done,
                                     checkpoint->rearrange_cross);
        write_checkpoint(start_index, tree, lnl);
      }
    } else {
      // Step 2: the unique 3-taxon tree, fully optimized.
      tree.make_triplet(order[0], order[1], order[2]);
      const TaskResult initial =
          dispatch_single(RoundKind::kInitial, 3, make_task(tree, -1));
      lnl = adopt(tree, initial);
      publish_best(lnl);
    }

    // Steps 3-5: add each remaining taxon, then rearrange.
    for (int idx = start_index; idx < n; ++idx) {
      const int tip = order[static_cast<std::size_t>(idx)];
      lnl = add_taxon(tree, tip, idx + 1);
      publish_best(lnl);

      const bool last = idx == n - 1;
      const int cross =
          last ? options_.final_rearrange_cross : options_.rearrange_cross;
      if (cross > 0) {
        lnl = rearrange_until_stable(tree, lnl, cross, idx + 1);
      }
      write_checkpoint(idx + 1, tree, lnl);
    }

    result_.best_newick = to_newick(tree, names_, 17);
    result_.best_log_likelihood = lnl;
    return std::move(result_);
  }

 private:
  TreeTask make_task(const Tree& tree, int focus_taxon) {
    TreeTask task;
    task.task_id = next_task_id_++;
    task.round_id = next_round_id_;
    task.newick = to_newick(tree, names_, 17);
    task.focus_taxon = focus_taxon;
    return task;
  }

  /// Dispatches one round through the runner, recording the trace entry.
  /// Returns the round's best result (the foreman already compared).
  TaskResult dispatch(RoundKind kind, int taxa_in_tree,
                      std::vector<TreeTask> tasks) {
    RoundTrace round;
    round.kind = kind;
    round.taxa_in_tree = taxa_in_tree;
    round.master_seconds = master_timer_.seconds();

    // Master-side round span: the search loop's serial bookkeeping plus the
    // blocking run_round call (a paper Figure-3 "serial fraction" input).
    obs::Span span("search", round_kind_name(kind), "round",
                   static_cast<std::int64_t>(next_round_id_), "tasks",
                   static_cast<std::int64_t>(tasks.size()));
    if (options_.progress != nullptr) {
      ProgressProbe& probe = *options_.progress;
      probe.phase.store(kind == RoundKind::kRearrange
                            ? static_cast<int>(SearchPhase::kRearrange)
                            : static_cast<int>(SearchPhase::kAddition),
                        std::memory_order_relaxed);
      probe.taxa_in_tree.store(taxa_in_tree, std::memory_order_relaxed);
      probe.round.store(static_cast<int>(next_round_id_),
                        std::memory_order_relaxed);
      probe.tasks_total.fetch_add(tasks.size(), std::memory_order_relaxed);
    }
    ++next_round_id_;
    result_.trees_evaluated += tasks.size();
    RoundOutcome outcome = runner_.run_round(tasks);
    if (outcome.stats.size() != tasks.size()) {
      throw std::logic_error("search: runner lost tasks");
    }
    if (options_.progress != nullptr) {
      options_.progress->tasks_done.fetch_add(tasks.size(),
                                              std::memory_order_relaxed);
    }

    if (options_.record_trace) {
      for (const TaskStat& stat : outcome.stats) {
        round.task_cpu_seconds.push_back(stat.cpu_seconds);
        round.task_bytes.push_back(stat.bytes);
      }
      result_.trace.rounds.push_back(std::move(round));
    }
    master_timer_.reset();
    return std::move(outcome.best);
  }

  TaskResult dispatch_single(RoundKind kind, int taxa_in_tree, TreeTask task) {
    std::vector<TreeTask> tasks{std::move(task)};
    return dispatch(kind, taxa_in_tree, std::move(tasks));
  }

  /// Replaces the master tree with a worker-optimized result. The master
  /// never recomputes likelihoods (the paper calls out fixing a bug where
  /// it re-evaluated returned trees).
  double adopt(Tree& tree, const TaskResult& result) {
    tree = tree_from_newick(result.newick, names_);
    return result.log_likelihood;
  }

  /// Publishes the lnL of the tree just adopted to the live progress probe.
  void publish_best(double lnl) {
    if (options_.progress != nullptr) options_.progress->set_best(lnl);
  }

  /// Writes the restart checkpoint after a completed taxon addition
  /// (phase kAddition) or a completed rearrangement round (kRearrange,
  /// with the loop state needed to continue that stage exactly). This is
  /// also the cooperative stop point: a pending stop request takes effect
  /// only after the covering checkpoint is durably committed, so an
  /// interrupted run never loses finished work.
  void write_checkpoint(int next_index, const Tree& tree, double lnl,
                        SearchPhase phase = SearchPhase::kAddition,
                        int rounds_done = 0, int cross = 0) {
    std::uint64_t generation = 0;
    if (store_.has_value()) {
      SearchCheckpoint checkpoint;
      checkpoint.seed = options_.seed;
      checkpoint.addition_order = result_.addition_order;
      checkpoint.next_order_index = next_index;
      checkpoint.tree_newick = to_newick(tree, names_, 17);
      checkpoint.log_likelihood = lnl;
      checkpoint.phase = phase;
      checkpoint.rearrange_rounds_done = rounds_done;
      checkpoint.rearrange_cross = cross;
      checkpoint.dataset_fingerprint = options_.dataset_fingerprint;
      const std::string text = checkpoint.serialize();
      generation = store_->commit(
          kFrameSearchCheckpoint, options_.dataset_fingerprint,
          std::vector<std::uint8_t>(text.begin(), text.end()));
      if (options_.progress != nullptr) {
        options_.progress->checkpoint_generation.store(
            generation, std::memory_order_relaxed);
      }
    }
    if (options_.stop_requested && options_.stop_requested()) {
      throw SearchInterrupted(generation);
    }
  }

  /// Step 3: try the new taxon at every branch; fully smooth the winner.
  double add_taxon(Tree& tree, int tip, int taxa_after) {
    std::vector<TreeTask> tasks;
    for (const auto& [u, v] : insertion_edges(tree)) {
      Tree candidate = tree;
      candidate.insert_tip(tip, u, v);
      tasks.push_back(make_task(candidate, tip));
    }
    const TaskResult best =
        dispatch(RoundKind::kInsertion, taxa_after, std::move(tasks));

    // The rapid approximation picked the insertion point; optimize the
    // winner properly.
    Tree winner_tree = tree_from_newick(best.newick, names_);
    const TaskResult winner = dispatch_single(RoundKind::kWinner, taxa_after,
                                              make_task(winner_tree, -1));
    return adopt(tree, winner);
  }

  /// Step 4/5: rounds of subtree rearrangement until no improvement. Each
  /// candidate carries its regraft marker and a screen kScreenMargin below
  /// the current lnL; a result that failed the screen lies below lnl, so it
  /// never passes the adoption test. With adaptive extents enabled, a
  /// stalled round escalates the crossing distance before the search
  /// settles. `start_round`/`start_cross` continue an interrupted stage
  /// from a kRearrange checkpoint (start_cross 0 = begin at the base
  /// extent); each completed round checkpoints the loop state, so a killed
  /// run resumes from the last round boundary and reproduces the
  /// uninterrupted result exactly.
  double rearrange_until_stable(Tree& tree, double lnl, int cross,
                                int taxa_in_tree, int start_round = 0,
                                int start_cross = 0) {
    int current_cross = start_cross > 0 ? start_cross : cross;
    for (int round = start_round; round < kMaxRearrangeRounds; ++round) {
      std::set<std::uint64_t> seen{topology_hash(tree)};
      std::vector<TreeTask> tasks;
      for (const SprMove& move : rearrangement_moves(tree, current_cross)) {
        Tree candidate = tree;
        const auto handle =
            candidate.prune_subtree(move.junction, move.subtree_neighbor);
        candidate.regraft(handle, move.target_u, move.target_v);
        if (!seen.insert(topology_hash(candidate)).second) continue;
        TreeTask task = make_task(candidate, -1);
        const int junction = handle.junction;
        task.regraft_taxa = {
            min_taxon_behind(candidate, handle.subtree, junction),
            min_taxon_behind(candidate, move.target_u, junction),
            min_taxon_behind(candidate, move.target_v, junction)};
        task.screen_lnl = lnl - kScreenMargin;
        tasks.push_back(std::move(task));
      }
      if (tasks.empty()) break;
      const TaskResult best =
          dispatch(RoundKind::kRearrange, taxa_in_tree, std::move(tasks));
      if (best.log_likelihood <= lnl + kImprovementEpsilon) {
        if (current_cross < options_.adaptive_max_cross) {
          current_cross = std::min(options_.adaptive_max_cross, 2 * current_cross);
          // Stalled: widen the search radius and retry.
          write_checkpoint(taxa_in_tree, tree, lnl, SearchPhase::kRearrange,
                           round + 1, current_cross);
          continue;
        }
        break;
      }
      lnl = adopt(tree, best);
      ++result_.rearrangements_accepted;
      publish_best(lnl);
      current_cross = cross;  // improvement: back to the base extent
      write_checkpoint(taxa_in_tree, tree, lnl, SearchPhase::kRearrange,
                       round + 1, current_cross);
    }
    return lnl;
  }

  const PatternAlignment& data_;
  const SearchOptions& options_;
  TaskRunner& runner_;
  const std::vector<std::string>& names_;
  std::optional<CheckpointStore> store_;
  SearchResult result_;
  std::uint64_t next_task_id_ = 0;
  std::uint64_t next_round_id_ = 0;
  CpuTimer master_timer_;
};

}  // namespace

StepwiseSearch::StepwiseSearch(const PatternAlignment& data, SearchOptions options)
    : data_(data), options_(options) {
  if (data.num_taxa() < 3) {
    throw std::invalid_argument("search: need at least 3 taxa");
  }
}

SearchResult StepwiseSearch::run(TaskRunner& runner) {
  Rng rng(options_.seed);
  std::vector<int> order(data_.num_taxa());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);
  return run(runner, std::move(order));
}

SearchResult StepwiseSearch::run(TaskRunner& runner, std::vector<int> order) {
  // Validate the permutation.
  std::vector<char> seen(order.size(), 0);
  for (int taxon : order) {
    if (taxon < 0 || taxon >= static_cast<int>(order.size()) ||
        seen[static_cast<std::size_t>(taxon)]) {
      throw std::invalid_argument("search: order is not a permutation");
    }
    seen[static_cast<std::size_t>(taxon)] = 1;
  }
  SearchRun run_state(data_, options_, runner);
  return run_state.run(std::move(order));
}

SearchResult StepwiseSearch::resume(TaskRunner& runner,
                                    const SearchCheckpoint& checkpoint) {
  // Refuse checkpoints that cannot belong to the loaded alignment, naming
  // both sides of the disagreement — "tree/index mismatch" told a user
  // nothing about *which* file was wrong.
  const std::size_t n = data_.num_taxa();
  if (checkpoint.addition_order.size() != n) {
    throw std::invalid_argument(
        "resume: checkpoint has " +
        std::to_string(checkpoint.addition_order.size()) +
        " taxa in its addition order but the loaded alignment has " +
        std::to_string(n) + " taxa — it belongs to a different dataset");
  }
  if (checkpoint.dataset_fingerprint != 0 && options_.dataset_fingerprint != 0 &&
      checkpoint.dataset_fingerprint != options_.dataset_fingerprint) {
    throw FingerprintMismatchError(options_.checkpoint_path.empty()
                                       ? "(in-memory checkpoint)"
                                       : options_.checkpoint_path,
                                   options_.dataset_fingerprint,
                                   checkpoint.dataset_fingerprint);
  }
  if (checkpoint.next_order_index < 3 ||
      checkpoint.next_order_index > static_cast<int>(n)) {
    throw std::invalid_argument(
        "resume: checkpoint next_order_index " +
        std::to_string(checkpoint.next_order_index) +
        " is outside [3, " + std::to_string(n) +
        "] for the loaded alignment");
  }
  std::vector<char> seen(n, 0);
  for (int taxon : checkpoint.addition_order) {
    if (taxon < 0 || taxon >= static_cast<int>(n) ||
        seen[static_cast<std::size_t>(taxon)]) {
      throw std::invalid_argument(
          "resume: checkpoint addition order is not a permutation of the "
          "loaded alignment's " + std::to_string(n) +
          " taxa (bad entry " + std::to_string(taxon) + ")");
    }
    seen[static_cast<std::size_t>(taxon)] = 1;
  }
  SearchRun run_state(data_, options_, runner);
  return run_state.run(checkpoint.addition_order, &checkpoint);
}

void SearchCheckpoint::save(std::ostream& out) const {
  out << "fdml-checkpoint 3\n";
  out << seed << " " << next_order_index << " " << addition_order.size() << "\n";
  for (int taxon : addition_order) out << taxon << " ";
  out << "\n";
  out << static_cast<int>(phase) << " " << rearrange_rounds_done << " "
      << rearrange_cross << "\n";
  out << dataset_fingerprint << "\n";
  out.precision(17);
  out << log_likelihood << "\n";
  out << tree_newick << "\n";
}

SearchCheckpoint SearchCheckpoint::load(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "fdml-checkpoint" || version != 3) {
    throw std::runtime_error("checkpoint: bad header");
  }
  SearchCheckpoint checkpoint;
  std::size_t order_size = 0;
  in >> checkpoint.seed >> checkpoint.next_order_index >> order_size;
  // The order length is a claim of the file, not an allocation size: the
  // order line is parsed on its own, entries are kept as they parse, and
  // the line must hold exactly the claimed number.
  std::string line;
  std::getline(in, line);  // rest of the counts line
  std::getline(in, line);
  std::istringstream order(line);
  for (int taxon = 0; order >> taxon;) checkpoint.addition_order.push_back(taxon);
  if (!order.eof() || checkpoint.addition_order.size() != order_size) {
    throw std::runtime_error("checkpoint: bad addition order");
  }
  int phase = 0;
  in >> phase >> checkpoint.rearrange_rounds_done >> checkpoint.rearrange_cross;
  if (phase != static_cast<int>(SearchPhase::kAddition) &&
      phase != static_cast<int>(SearchPhase::kRearrange)) {
    throw std::runtime_error("checkpoint: bad phase");
  }
  checkpoint.phase = static_cast<SearchPhase>(phase);
  in >> checkpoint.dataset_fingerprint >> checkpoint.log_likelihood;
  // The Newick line is taken verbatim (labels may contain quoted spaces).
  std::string rest;
  std::getline(in, rest);
  std::getline(in, checkpoint.tree_newick);
  if (!in || checkpoint.tree_newick.empty()) {
    throw std::runtime_error("checkpoint: truncated");
  }
  return checkpoint;
}

std::string SearchCheckpoint::serialize() const {
  std::ostringstream out;
  save(out);
  return out.str();
}

SearchCheckpoint SearchCheckpoint::deserialize(const std::string& text) {
  std::istringstream in(text);
  return load(in);
}

std::optional<RecoveredCheckpoint> recover_checkpoint(
    const std::string& base_path, std::uint64_t expected_fingerprint,
    Vfs* vfs) {
  CheckpointStore store(base_path, {}, vfs);
  auto recovered = store.recover(expected_fingerprint);
  if (!recovered.has_value()) return std::nullopt;
  RecoveredCheckpoint out;
  out.checkpoint = SearchCheckpoint::deserialize(std::string(
      recovered->frame.payload.begin(), recovered->frame.payload.end()));
  out.generation = recovered->generation;
  out.path = recovered->path;
  return out;
}

JumbleResult run_jumbles(const PatternAlignment& data, SearchOptions options,
                         int count, TaskRunner& runner) {
  JumbleResult out;
  for (int k = 0; k < count; ++k) {
    SearchOptions jumble_options = options;
    jumble_options.seed = adjust_user_seed(options.seed) + 2ULL * k;
    StepwiseSearch search(data, jumble_options);
    out.runs.push_back(search.run(runner));
    if (out.runs.back().best_log_likelihood >
        out.runs[out.best_index].best_log_likelihood) {
      out.best_index = out.runs.size() - 1;
    }
  }
  return out;
}

}  // namespace fdml
