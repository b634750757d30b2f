// The fastDNAml search: stepwise addition with local rearrangements.
//
// Algorithm (paper section 2):
//   1. Place the taxa in a random order.
//   2. Build the unique 3-taxon tree from the first three; optimize it.
//   3. Add the next taxon at each of the (2i-5) branches; every candidate
//      is a dispatched task (rapid optimization of the three branches at
//      the attachment); the best insertion is then fully smoothed.
//   4. Rearrange: move every subtree across up to `rearrange_cross`
//      vertices ((2i-6) topologically distinct candidates at 1); adopt the
//      best improvement and repeat until none improves. Each candidate is
//      screened first: a worker smooths the branches within two edges of
//      its regraft junction and fully smooths only a candidate whose local
//      lnL comes within kScreenMargin of the current tree's.
//   5. After the last taxon, rearrange with `final_rearrange_cross`
//      (the paper's runs used 5) until no improvement.
// The whole procedure is repeated over many random orders (jumbles) and
// summarised with a consensus tree; see run_jumbles.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "durable/vfs.hpp"
#include "search/runner.hpp"
#include "search/trace.hpp"
#include "seq/alignment.hpp"
#include "tree/tree.hpp"

namespace fdml {

/// Live progress published by a running search, readable from any thread
/// (the telemetry plane's scrape handler polls it while the search runs).
/// All fields are relaxed atomics: each is individually coherent, and a
/// scrape that catches a round mid-update is fine — progress is monotonic
/// enough for dashboards, and exactness comes from the final result.
struct ProgressProbe {
  /// SearchPhase as an int (-1 until the search first dispatches work).
  std::atomic<int> phase{-1};
  std::atomic<int> taxa_in_tree{0};
  /// Rearrangement round counter at the current taxon count.
  std::atomic<int> round{0};
  std::atomic<std::uint64_t> tasks_done{0};
  std::atomic<std::uint64_t> tasks_total{0};
  /// Last durably committed checkpoint generation (0 = none yet).
  std::atomic<std::uint64_t> checkpoint_generation{0};

  void set_best(double log_likelihood) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &log_likelihood, sizeof(bits));
    best_bits_.store(bits, std::memory_order_relaxed);
    has_best_.store(true, std::memory_order_release);
  }

  /// nullopt until the first tree is adopted.
  std::optional<double> best() const noexcept {
    if (!has_best_.load(std::memory_order_acquire)) return std::nullopt;
    const std::uint64_t bits = best_bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

 private:
  /// lnL as an IEEE-754 bit pattern — doubles have no lock-free atomic on
  /// every target, u64 does.
  std::atomic<std::uint64_t> best_bits_{0};
  std::atomic<bool> has_best_{false};
};

/// lnL gain below which a rearrangement round counts as no improvement.
inline constexpr double kImprovementEpsilon = 1e-4;
/// A rearrangement candidate is fully smoothed only if its locally smoothed
/// lnL comes within this of the current tree's. A candidate screened out
/// returns a lnL below the current tree's, so it can never be adopted.
inline constexpr double kScreenMargin = 1.0;
static_assert(kScreenMargin > 0.0,
              "a screened-out candidate must fall below the adoption test");
/// Rearrangement rounds at most at one taxon count.
inline constexpr int kMaxRearrangeRounds = 64;

struct SearchOptions {
  /// Jumble seed (even seeds are adjusted to odd, as in fastDNAml).
  std::uint64_t seed = 1;
  /// Vertices crossed by rearrangements after each addition (paper default
  /// 1; the paper's benchmark runs used 5 for both this and the final pass).
  /// 0 keeps only the final pass.
  int rearrange_cross = 1;
  /// Vertices crossed by the final rearrangement pass.
  int final_rearrange_cross = 1;
  /// Adaptive rearrangement extents (a paper future-work item): when a
  /// round at the current crossing distance finds no improvement, double
  /// the distance up to this bound before stopping; an improvement resets
  /// to the base setting. 0 disables.
  int adaptive_max_cross = 0;
  /// Record per-round task costs for the cluster simulator.
  bool record_trace = true;
  /// When non-empty, write a restart checkpoint here after every completed
  /// taxon addition and every completed rearrangement round (original
  /// fastDNAml wrote checkpoint trees so long runs could survive
  /// interruption). Resume with StepwiseSearch::resume; the completed
  /// result is identical to the uninterrupted run. Checkpoints go through
  /// the durable CheckpointStore: crash-safe atomic commits, with the last
  /// `checkpoint_keep` generations retained for rollback.
  std::string checkpoint_path;
  /// Generations retained by the checkpoint store.
  std::uint64_t checkpoint_keep = 3;
  /// Fingerprint of the alignment/model this run is bound to (see
  /// alignment_fingerprint). Stamped into every checkpoint; resume refuses
  /// a checkpoint carrying a different one. 0 = unchecked.
  std::uint64_t dataset_fingerprint = 0;
  /// Filesystem used for checkpoints; null = the real one. Tests inject a
  /// FaultVfs here to crash the run at chosen commit points.
  Vfs* vfs = nullptr;
  /// Polled at every checkpoint boundary; returning true stops the run by
  /// throwing SearchInterrupted after the checkpoint has been committed.
  /// The SIGINT/SIGTERM handler in apps/fastdnamlpp sets this.
  std::function<bool()> stop_requested;
  /// When non-null, the search publishes live progress (phase, round, task
  /// counts, best lnL, checkpoint generation) here. Must outlive the run.
  ProgressProbe* progress = nullptr;
};

/// Thrown when SearchOptions::stop_requested asked the run to stop. The
/// checkpoint covering all completed work was already durably committed;
/// `generation` names it (0 when no checkpoint path was configured).
class SearchInterrupted : public std::runtime_error {
 public:
  explicit SearchInterrupted(std::uint64_t generation)
      : std::runtime_error(
            "search interrupted; resumable at checkpoint generation " +
            std::to_string(generation)),
        generation_(generation) {}

  std::uint64_t generation() const { return generation_; }

 private:
  std::uint64_t generation_ = 0;
};

/// Which part of the search a checkpoint captured. Rearrangement rounds are
/// memoryless given (tree, likelihood, crossing distance, round counter) —
/// each round rebuilds its candidate set from the current tree — which is
/// what makes round-granular resume reproduce an uninterrupted run exactly.
enum class SearchPhase : int {
  /// The addition (and any rearrangement) for every taxon before
  /// next_order_index is complete.
  kAddition = 0,
  /// Mid-rearrangement with next_order_index taxa in the tree.
  kRearrange = 1,
};

/// Restartable search state: everything needed to continue a run after a
/// completed taxon addition or a completed rearrangement round. The text
/// format ("fdml-checkpoint 3") is the payload of the checkpoint store's
/// durable frames; it is the only format there is.
struct SearchCheckpoint {
  std::uint64_t seed = 0;
  std::vector<int> addition_order;
  /// Index into addition_order of the next taxon to add; equals the number
  /// of taxa in the checkpointed tree.
  int next_order_index = 0;
  std::string tree_newick;
  double log_likelihood = 0.0;
  SearchPhase phase = SearchPhase::kAddition;
  /// kRearrange only: rounds already consumed at this taxon count (resumes
  /// the kMaxRearrangeRounds budget, not a fresh one).
  int rearrange_rounds_done = 0;
  /// kRearrange only: the crossing distance in effect (adaptive extents may
  /// have escalated it beyond the configured base).
  int rearrange_cross = 0;
  /// Fingerprint of the alignment/model the run was bound to (0 in
  /// unfingerprinted runs).
  std::uint64_t dataset_fingerprint = 0;

  void save(std::ostream& out) const;
  /// Throws std::runtime_error on a malformed or truncated text.
  static SearchCheckpoint load(std::istream& in);
  /// The text serialization used as durable-frame payload.
  std::string serialize() const;
  static SearchCheckpoint deserialize(const std::string& text);
};

/// Fingerprint-checked recovery through the generational checkpoint store.
struct RecoveredCheckpoint {
  SearchCheckpoint checkpoint;
  std::uint64_t generation = 0;
  /// Which on-disk file validated (the base path or a .gen-<N> sibling).
  std::string path;
};

/// Rolls back to the newest checkpoint generation at `base_path` that
/// validates and matches `expected_fingerprint` (0 = accept any). nullopt
/// when nothing usable exists; throws FingerprintMismatchError when the
/// newest valid checkpoint belongs to a different dataset.
std::optional<RecoveredCheckpoint> recover_checkpoint(
    const std::string& base_path, std::uint64_t expected_fingerprint,
    Vfs* vfs = nullptr);

struct SearchResult {
  std::string best_newick;
  double best_log_likelihood = 0.0;
  std::vector<int> addition_order;
  SearchTrace trace;
  std::size_t trees_evaluated = 0;
  std::size_t rearrangements_accepted = 0;
};

class StepwiseSearch {
 public:
  /// `data` must outlive the search.
  StepwiseSearch(const PatternAlignment& data, SearchOptions options);

  /// One full search with the addition order drawn from options.seed.
  SearchResult run(TaskRunner& runner);

  /// One full search with an explicit addition order (must be a permutation
  /// of 0..num_taxa-1).
  SearchResult run(TaskRunner& runner, std::vector<int> addition_order);

  /// Continues an interrupted run from a checkpoint. The completed result
  /// is identical to an uninterrupted run with the same options.
  SearchResult resume(TaskRunner& runner, const SearchCheckpoint& checkpoint);

  const SearchOptions& options() const { return options_; }

 private:
  const PatternAlignment& data_;
  SearchOptions options_;
};

/// Repeats the search over `count` random orderings (seeds seed, seed+2,
/// seed+4, ... to stay odd) and returns all results; `best_index` has the
/// highest likelihood. This is the workflow the paper describes: "tens to
/// thousands of different randomizations ... compare the best of the
/// resulting trees to determine a consensus tree."
struct JumbleResult {
  std::vector<SearchResult> runs;
  std::size_t best_index = 0;
};
JumbleResult run_jumbles(const PatternAlignment& data, SearchOptions options,
                         int count, TaskRunner& runner);

}  // namespace fdml
