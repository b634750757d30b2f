// Tests for the stepwise-addition + rearrangement search and its task
// machinery.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>

#include "model/simulate.hpp"
#include "search/search.hpp"
#include "tree/neighborhood.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {
namespace {

struct Fixture {
  Fixture(int taxa, std::size_t sites, std::uint64_t seed = 21)
      : truth(3), alignment(make_dataset(taxa, sites, seed, truth)), data(alignment) {}

  static Alignment make_dataset(int taxa, std::size_t sites, std::uint64_t seed,
                                Tree& truth_out) {
    Rng rng(seed);
    truth_out = random_yule_tree(taxa, rng);
    SimulateOptions options;
    options.num_sites = sites;
    return simulate_alignment(truth_out, default_taxon_names(taxa),
                              SubstModel::jc69(), RateModel::uniform(), options,
                              rng);
  }

  SerialTaskRunner runner() {
    return SerialTaskRunner(data, SubstModel::jc69(), RateModel::uniform());
  }

  Tree truth;
  Alignment alignment;
  PatternAlignment data;
};

TEST(TaskCodec, RoundTrip) {
  TreeTask task;
  task.task_id = 42;
  task.round_id = 7;
  task.newick = "(a:1,b:2,(c:0.5,d:0.5):1);";
  task.focus_taxon = 3;
  Packer packer;
  task.pack(packer);
  Unpacker unpacker(packer.data());
  const TreeTask back = TreeTask::unpack(unpacker);
  EXPECT_EQ(back.task_id, 42u);
  EXPECT_EQ(back.newick, task.newick);
  EXPECT_EQ(back.focus_taxon, 3);
  EXPECT_FALSE(back.screened());

  TreeTask marked = task;
  marked.focus_taxon = -1;
  marked.regraft_taxa = {2, 0, 3};
  marked.screen_lnl = -1235.5;
  Packer mp;
  marked.pack(mp);
  Unpacker mu(mp.data());
  const TreeTask mback = TreeTask::unpack(mu);
  EXPECT_TRUE(mu.exhausted());
  EXPECT_TRUE(mback.screened());
  EXPECT_EQ(mback.regraft_taxa, marked.regraft_taxa);
  EXPECT_EQ(mback.screen_lnl, -1235.5);

  TaskResult result;
  result.task_id = 42;
  result.round_id = 7;
  result.log_likelihood = -1234.5;
  result.newick = task.newick;
  result.cpu_seconds = 0.25;
  result.worker = 9;
  Packer rp;
  result.pack(rp);
  Unpacker ru(rp.data());
  const TaskResult rback = TaskResult::unpack(ru);
  EXPECT_DOUBLE_EQ(rback.log_likelihood, -1234.5);
  EXPECT_EQ(rback.worker, 9);
}

TEST(TaskCodec, RejectsMalformedRegraftMarker) {
  const auto decode = [](std::array<int, 3> taxa, int focus_taxon) {
    TreeTask task;
    task.newick = "(a:1,b:2,(c:0.5,d:0.5):1);";
    task.focus_taxon = focus_taxon;
    task.regraft_taxa = taxa;
    Packer packer;
    task.pack(packer);
    Unpacker unpacker(packer.data());
    return TreeTask::unpack(unpacker);
  };
  EXPECT_NO_THROW(decode({1, 0, 3}, -1));
  EXPECT_THROW(decode({1, -1, 3}, -1), std::invalid_argument);   // partly set
  EXPECT_THROW(decode({-1, -1, 3}, -1), std::invalid_argument);  // partly set
  EXPECT_THROW(decode({1, 0, 1}, -1), std::invalid_argument);    // repeated
  EXPECT_THROW(decode({1, 0, 3}, 2), std::invalid_argument);     // + focus
  EXPECT_THROW(decode({-2, -2, -2}, -1), std::invalid_argument);
  EXPECT_THROW(decode({-1, -1, -1}, -2), std::invalid_argument);  // focus
}

/// A rearrangement candidate as the search builds one: `tree`'s first
/// subtree move applied, with its regraft marker.
TreeTask marked_candidate(const Tree& tree,
                          const std::vector<std::string>& names,
                          double screen_lnl) {
  const SprMove move = rearrangement_moves(tree, 1).front();
  Tree candidate = tree;
  const auto handle =
      candidate.prune_subtree(move.junction, move.subtree_neighbor);
  candidate.regraft(handle, move.target_u, move.target_v);
  TreeTask task;
  task.newick = to_newick(candidate, names, 17);
  task.regraft_taxa = {
      min_taxon_behind(candidate, handle.subtree, handle.junction),
      min_taxon_behind(candidate, move.target_u, handle.junction),
      min_taxon_behind(candidate, move.target_v, handle.junction)};
  task.screen_lnl = screen_lnl;
  return task;
}

TEST(TaskEvaluatorTest, PassedScreenIsTheFullTaskBitForBit) {
  Fixture fx(10, 300);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());
  Rng rng(8);
  const TreeTask marked =
      marked_candidate(random_tree(10, rng), fx.data.names(),
                       -std::numeric_limits<double>::infinity());
  TreeTask unmarked = marked;
  unmarked.regraft_taxa = {-1, -1, -1};
  unmarked.screen_lnl = 0.0;
  const TaskResult full = evaluator.evaluate(unmarked);
  const TaskResult screened = evaluator.evaluate(marked);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(screened.log_likelihood),
            std::bit_cast<std::uint64_t>(full.log_likelihood));
  EXPECT_EQ(screened.newick, full.newick);
}

TEST(TaskEvaluatorTest, FailedScreenReturnsTheLocalResult) {
  Fixture fx(10, 300);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());
  Rng rng(8);
  const TreeTask marked =
      marked_candidate(random_tree(10, rng), fx.data.names(),
                       std::numeric_limits<double>::infinity());
  const TaskResult local = evaluator.evaluate(marked);
  EXPECT_TRUE(std::isfinite(local.log_likelihood));
  EXPECT_LT(local.log_likelihood, marked.screen_lnl);

  // The lnL belongs to the returned lengths, and the topology is the task's.
  Tree returned = tree_from_newick(local.newick, fx.data.names());
  EXPECT_EQ(robinson_foulds(returned,
                            tree_from_newick(marked.newick, fx.data.names())),
            0);
  LikelihoodEngine engine(fx.data, SubstModel::jc69(), RateModel::uniform());
  engine.attach(returned);
  EXPECT_NEAR(engine.log_likelihood(), local.log_likelihood,
              1e-9 * std::fabs(local.log_likelihood));
}

TEST(TaskEvaluatorTest, BadMarkerThrows) {
  Fixture fx(10, 100);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());
  Rng rng(8);
  Tree tree = random_tree(10, rng);
  tree.remove_tip(9);
  TreeTask task = marked_candidate(tree, fx.data.names(), 0.0);
  task.regraft_taxa[2] = 9;  // a taxon the tree does not hold
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);
  task.regraft_taxa[2] = 42;  // not a taxon at all
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);
  task.regraft_taxa[2] = task.regraft_taxa[0];  // malformed, never unpacked
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);
}

TEST(TaskEvaluatorTest, BadFocusTaxonThrows) {
  Fixture fx(8, 100);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());
  Rng rng(8);
  Tree tree = random_tree(8, rng);
  tree.remove_tip(7);
  TreeTask task;
  task.newick = to_newick(tree, fx.data.names(), 17);
  task.focus_taxon = 100000;  // far outside the node table
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);
  task.focus_taxon = 40;  // just past the node table
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);
  task.focus_taxon = 7;  // a taxon the tree does not hold
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);

  // A 3-tip tree has no base to detach the focus tip from; no search
  // sends one (its first insertion adds the 4th taxon).
  Tree triplet(8);
  triplet.make_triplet(0, 1, 2);
  task.newick = to_newick(triplet, fx.data.names(), 17);
  task.focus_taxon = 1;
  EXPECT_THROW(evaluator.evaluate(task), std::invalid_argument);

  task.newick = to_newick(tree, fx.data.names(), 17);
  task.focus_taxon = 4;
  EXPECT_NO_THROW(evaluator.evaluate(task));
}

TEST(TaskEvaluatorTest, FocusTaskOnlyTouchesAttachmentEdges) {
  Fixture fx(8, 200);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());

  Rng rng(5);
  Tree tree = random_tree(8, rng);
  const auto names = fx.data.names();
  TreeTask task;
  task.task_id = 1;
  task.newick = to_newick(tree, names, 17);
  task.focus_taxon = 4;
  const TaskResult result = evaluator.evaluate(task);
  const Tree optimized = tree_from_newick(result.newick, names);

  // Internal node ids are not stable across Newick, so compare the sorted
  // multiset of lengths away from the attachment junction: it must be
  // untouched by a focus task.
  auto lengths_excluding_junction = [](const Tree& t) {
    const int junction = t.neighbor(4, 0);
    std::multiset<double> lengths;
    for (const auto& [u, v] : t.edges()) {
      if (u == junction || v == junction) continue;
      lengths.insert(t.length(u, v));
    }
    return lengths;
  };
  const auto before = lengths_excluding_junction(tree);
  const auto after = lengths_excluding_junction(optimized);
  ASSERT_EQ(before.size(), after.size());
  auto ib = before.begin();
  auto ia = after.begin();
  for (; ib != before.end(); ++ib, ++ia) EXPECT_NEAR(*ib, *ia, 1e-12);
  EXPECT_EQ(robinson_foulds(tree, optimized), 0) << "topology unchanged";
}

TEST(TaskEvaluatorTest, FullTaskImprovesOnFocusTask) {
  Fixture fx(8, 300);
  TaskEvaluator evaluator(fx.data, SubstModel::jc69(), RateModel::uniform());
  Rng rng(6);
  Tree tree = random_tree(8, rng);
  TreeTask focus_task;
  focus_task.newick = to_newick(tree, fx.data.names(), 17);
  focus_task.focus_taxon = 2;
  TreeTask full_task = focus_task;
  full_task.focus_taxon = -1;
  const double focus_lnl = evaluator.evaluate(focus_task).log_likelihood;
  const double full_lnl = evaluator.evaluate(full_task).log_likelihood;
  EXPECT_GE(full_lnl, focus_lnl - 1e-6);
}

/// One insertion round: `focus` tried at every edge of `base` (which must
/// not contain it), as the search builds the round's tasks.
std::vector<TreeTask> insertion_round(const Tree& base, int focus,
                                      std::uint64_t round_id,
                                      const std::vector<std::string>& names) {
  std::vector<TreeTask> tasks;
  for (const auto& [u, v] : base.edges()) {
    Tree candidate = base;
    candidate.insert_tip(focus, u, v);
    TreeTask task;
    task.task_id = tasks.size();
    task.round_id = round_id;
    task.newick = to_newick(candidate, names, 17);
    task.focus_taxon = focus;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

TEST(TaskEvaluatorTest, InsertionResultIsAPureFunctionOfTheTask) {
  Fixture fx(10, 300);
  const auto names = fx.data.names();
  Rng rng(12);
  // Two different base trees without taxon 9, under one round id: the
  // shared context must notice the switch by comparing trees.
  Tree base_a = random_tree(10, rng);
  Tree base_b = random_tree(10, rng);
  base_a.remove_tip(9);
  base_b.remove_tip(9);
  std::vector<TreeTask> tasks = insertion_round(base_a, 9, 4, names);
  const std::vector<TreeTask> tasks_b = insertion_round(base_b, 9, 4, names);
  tasks.insert(tasks.end(), tasks_b.begin(), tasks_b.end());
  TreeTask full;
  full.round_id = 4;
  full.newick = to_newick(random_tree(10, rng), names, 17);
  TreeTask screened = marked_candidate(random_tree(10, rng), names,
                                       std::numeric_limits<double>::infinity());
  screened.round_id = 4;

  // In order, then reversed; the full and screened tasks detach the
  // evaluator's engine from the context in between.
  std::vector<const TreeTask*> sequence;
  for (const TreeTask& task : tasks) sequence.push_back(&task);
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) {
    sequence.push_back(&*it);
  }
  sequence.insert(sequence.begin() + 5, &full);
  sequence.insert(sequence.begin() + static_cast<std::ptrdiff_t>(tasks.size()) + 3,
                  &screened);

  TaskEvaluator shared(fx.data, SubstModel::jc69(), RateModel::uniform());
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const TreeTask& task = *sequence[i];
    const TaskResult got = shared.evaluate(task);
    TaskEvaluator fresh(fx.data, SubstModel::jc69(), RateModel::uniform());
    const TaskResult want = fresh.evaluate(task);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.log_likelihood),
              std::bit_cast<std::uint64_t>(want.log_likelihood))
        << "position " << i;
    EXPECT_EQ(got.newick, want.newick) << "position " << i;
  }
}

TEST(TaskEvaluatorTest, InsertionRoundSharesBaseClvs) {
  // The candidates of a round share one base tree: each one's splice reads
  // the base CLVs across its edge, and those must survive the scoped
  // restore for the next candidate. An evaluator per candidate computes
  // them all afresh every time.
  Fixture fx(24, 200);
  Rng rng(4);
  Tree base = random_tree(24, rng);
  base.remove_tip(23);
  const std::vector<TreeTask> tasks =
      insertion_round(base, 23, 1, fx.data.names());

  TaskEvaluator shared(fx.data, SubstModel::jc69(), RateModel::uniform());
  for (const TreeTask& task : tasks) shared.evaluate(task);
  const std::uint64_t shared_clvs = shared.engine().clv_computations();

  std::uint64_t fresh_clvs = 0;
  for (const TreeTask& task : tasks) {
    TaskEvaluator fresh(fx.data, SubstModel::jc69(), RateModel::uniform());
    fresh.evaluate(task);
    fresh_clvs += fresh.engine().clv_computations();
  }
  EXPECT_LT(2 * shared_clvs, fresh_clvs)
      << "shared " << shared_clvs << " vs fresh " << fresh_clvs;
}

TEST(Search, RecoversSimulatedTopology) {
  Fixture fx(10, 600);
  auto runner = fx.runner();
  SearchOptions options;
  options.seed = 3;
  StepwiseSearch search(fx.data, options);
  const SearchResult result = search.run(runner);
  const Tree best = tree_from_newick(result.best_newick, fx.data.names());
  EXPECT_LE(robinson_foulds(best, fx.truth), 2)
      << "600 JC sites should pin down a 10-taxon Yule tree (almost)";
  EXPECT_LT(result.best_log_likelihood, 0.0);
}

TEST(Search, DeterministicForSeed) {
  Fixture fx(8, 200);
  auto runner = fx.runner();
  SearchOptions options;
  options.seed = 11;
  StepwiseSearch search(fx.data, options);
  const SearchResult a = search.run(runner);
  const SearchResult b = search.run(runner);
  EXPECT_EQ(a.best_newick, b.best_newick);
  EXPECT_DOUBLE_EQ(a.best_log_likelihood, b.best_log_likelihood);
  EXPECT_EQ(a.addition_order, b.addition_order);
}

TEST(Search, AdditionOrderIsSeededPermutation) {
  Fixture fx(8, 100);
  auto runner = fx.runner();
  SearchOptions options;
  options.seed = 11;
  options.rearrange_cross = 0;
  options.final_rearrange_cross = 0;
  const SearchResult a = StepwiseSearch(fx.data, options).run(runner);
  options.seed = 13;
  const SearchResult b = StepwiseSearch(fx.data, options).run(runner);
  std::set<int> pa(a.addition_order.begin(), a.addition_order.end());
  EXPECT_EQ(pa.size(), 8u);
  EXPECT_NE(a.addition_order, b.addition_order) << "different seeds, different orders";
}

TEST(Search, TraceHasPaperTaskStructure) {
  Fixture fx(9, 150);
  auto runner = fx.runner();
  SearchOptions options;
  options.seed = 7;
  options.rearrange_cross = 0;
  options.final_rearrange_cross = 1;
  StepwiseSearch search(fx.data, options);
  const SearchResult result = search.run(runner);
  const SearchTrace& trace = result.trace;

  ASSERT_FALSE(trace.rounds.empty());
  EXPECT_EQ(trace.rounds.front().kind, RoundKind::kInitial);
  EXPECT_EQ(trace.rounds.front().task_cpu_seconds.size(), 1u);

  // Insertion rounds must offer 2i-5 candidates for the i-th taxon.
  int expected_taxa = 4;
  for (const auto& round : trace.rounds) {
    if (round.kind != RoundKind::kInsertion) continue;
    EXPECT_EQ(round.taxa_in_tree, expected_taxa);
    EXPECT_EQ(static_cast<int>(round.task_cpu_seconds.size()),
              2 * expected_taxa - 5);
    ++expected_taxa;
  }
  EXPECT_EQ(expected_taxa, 10) << "one insertion round per taxon 4..9";

  // Rearrangement rounds at k=1 dispatch at most 2n-6 distinct topologies.
  for (const auto& round : trace.rounds) {
    if (round.kind != RoundKind::kRearrange) continue;
    EXPECT_LE(static_cast<int>(round.task_cpu_seconds.size()),
              2 * round.taxa_in_tree - 6);
    EXPECT_GT(round.task_cpu_seconds.size(), 0u);
  }

  // Byte accounting present for every task.
  for (const auto& round : trace.rounds) {
    EXPECT_EQ(round.task_bytes.size(), round.task_cpu_seconds.size());
    for (std::uint64_t bytes : round.task_bytes) EXPECT_GT(bytes, 0u);
  }
  EXPECT_EQ(trace.total_tasks(), result.trees_evaluated);
}

// Every adopted rearrangement strictly improves on the tree it replaces,
// and the search ends on the last tree it adopted. The checkpoint stream
// records each adoption (a kRearrange checkpoint; with adaptive extents
// off, a stalled round writes none) and each completed taxon (kAddition).
TEST(Search, CheckpointedLikelihoodsImproveWithinRearrangement) {
  Fixture fx(9, 300);
  auto runner = fx.runner();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fdml_search_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "run.ckpt").string();

  SearchOptions options;
  options.seed = 5;  // adopts three rearrangements
  options.checkpoint_path = path;
  std::vector<SearchCheckpoint> stream;
  options.stop_requested = [&stream, &path] {
    stream.push_back(recover_checkpoint(path, 0).value().checkpoint);
    return false;
  };
  const SearchResult result = StepwiseSearch(fx.data, options).run(runner);
  std::filesystem::remove_all(dir);

  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream.back().log_likelihood, result.best_log_likelihood);
  const auto adoptions = std::count_if(
      stream.begin(), stream.end(), [](const SearchCheckpoint& c) {
        return c.phase == SearchPhase::kRearrange;
      });
  EXPECT_EQ(static_cast<std::size_t>(adoptions),
            result.rearrangements_accepted);
  EXPECT_GT(adoptions, 0);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const SearchCheckpoint& before = stream[i - 1];
    const SearchCheckpoint& after = stream[i];
    if (after.next_order_index != before.next_order_index) continue;
    if (after.phase == SearchPhase::kRearrange) {
      EXPECT_GT(after.log_likelihood, before.log_likelihood)
          << "rearrangement adoptions must strictly improve";
    } else {
      EXPECT_EQ(after.log_likelihood, before.log_likelihood)
          << "a completed taxon keeps its last adopted tree";
    }
  }
}

TEST(Search, FinalRearrangementNeverHurts) {
  Fixture fx(9, 250);
  auto runner = fx.runner();
  SearchOptions no_rearrange;
  no_rearrange.seed = 15;
  no_rearrange.rearrange_cross = 0;
  no_rearrange.final_rearrange_cross = 0;
  SearchOptions with_rearrange = no_rearrange;
  with_rearrange.final_rearrange_cross = 2;
  const SearchResult plain = StepwiseSearch(fx.data, no_rearrange).run(runner);
  const SearchResult improved =
      StepwiseSearch(fx.data, with_rearrange).run(runner);
  EXPECT_GE(improved.best_log_likelihood, plain.best_log_likelihood - 1e-6);
}

/// Clears every task's regraft marker, so each rearrangement candidate is
/// fully smoothed, as when candidates were not screened.
class UnscreenedRunner : public TaskRunner {
 public:
  explicit UnscreenedRunner(TaskRunner& inner) : inner_(inner) {}

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override {
    std::vector<TreeTask> cleared = tasks;
    for (TreeTask& task : cleared) {
      if (task.screened()) ++cleared_;
      task.regraft_taxa = {-1, -1, -1};
      task.screen_lnl = 0.0;
    }
    return inner_.run_round(cleared);
  }

  std::size_t cleared() const { return cleared_; }

 private:
  TaskRunner& inner_;
  std::size_t cleared_ = 0;
};

// The screen only skips work: every candidate that would improve the tree
// passes it, so the search takes the same path as with every candidate
// fully smoothed.
TEST(Search, ScreenedSearchMatchesUnscreenedBitForBit) {
  Fixture fx(12, 150);  // noisy enough that every seed here accepts moves
  for (const int cross : {1, 3}) {
    for (const std::uint64_t seed : {3u, 9u}) {
      SearchOptions options;
      options.seed = seed;
      options.rearrange_cross = cross;
      options.final_rearrange_cross = cross;
      auto screened_runner = fx.runner();
      const SearchResult screened =
          StepwiseSearch(fx.data, options).run(screened_runner);
      auto inner = fx.runner();
      UnscreenedRunner unscreened_runner(inner);
      const SearchResult unscreened =
          StepwiseSearch(fx.data, options).run(unscreened_runner);
      SCOPED_TRACE("cross " + std::to_string(cross) + " seed " +
                   std::to_string(seed));
      EXPECT_GT(unscreened_runner.cleared(), 0u);
      EXPECT_GT(screened.rearrangements_accepted, 0u);
      EXPECT_EQ(screened.best_newick, unscreened.best_newick);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(screened.best_log_likelihood),
                std::bit_cast<std::uint64_t>(unscreened.best_log_likelihood));
      EXPECT_EQ(screened.trees_evaluated, unscreened.trees_evaluated);
      EXPECT_EQ(screened.rearrangements_accepted,
                unscreened.rearrangements_accepted);
    }
  }
}

TEST(Search, RejectsBadOrder) {
  Fixture fx(8, 100);
  auto runner = fx.runner();
  SearchOptions options;
  StepwiseSearch search(fx.data, options);
  EXPECT_THROW(search.run(runner, {0, 1, 2, 3, 4, 5, 6, 6}),
               std::invalid_argument);
  EXPECT_THROW(search.run(runner, {0, 1, 2}), std::invalid_argument);
}

TEST(Search, JumblesProduceCountedRunsAndBestIndex) {
  Fixture fx(8, 200);
  auto runner = fx.runner();
  SearchOptions options;
  options.seed = 2;  // even: adjusted internally
  const JumbleResult jumbles = run_jumbles(fx.data, options, 3, runner);
  ASSERT_EQ(jumbles.runs.size(), 3u);
  for (const auto& run : jumbles.runs) {
    EXPECT_LE(run.best_log_likelihood,
              jumbles.runs[jumbles.best_index].best_log_likelihood + 1e-12);
  }
  // Orders differ across jumbles (with overwhelming probability).
  EXPECT_FALSE(jumbles.runs[0].addition_order == jumbles.runs[1].addition_order &&
               jumbles.runs[1].addition_order == jumbles.runs[2].addition_order);
}

TEST(Trace, ScaleCostsIsLinear) {
  SearchTrace trace;
  RoundTrace round;
  round.task_cpu_seconds = {1.0, 2.0};
  round.master_seconds = 0.5;
  trace.rounds.push_back(round);
  trace.scale_costs(3.0);
  EXPECT_DOUBLE_EQ(trace.total_task_seconds(), 9.0);
  EXPECT_DOUBLE_EQ(trace.total_master_seconds(), 1.5);
}

}  // namespace
}  // namespace fdml
