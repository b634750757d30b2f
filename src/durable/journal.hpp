// The foreman's append-only task journal (write-ahead log).
//
// Every completed TreeTask is appended as one durable frame before its
// result is folded into the round. If the foreman (or the whole process)
// dies mid-round, the revived foreman replays the journal and skips the
// insertions that already finished — on the paper's week-long 50-taxon
// runs, re-evaluating half a round was hours of lost CPU.
//
// Entries are content-addressed, not id-addressed: a revived master resends
// the round with fresh task_ids/round_ids, so identity is a digest over
// what the task *computes* (newick, focus taxon and regraft marker) and the
// round key is a digest over the ordered task digests of the round. The same
// work is recognised no matter how it is renumbered.
//
// On disk the journal is a sequence of durable frames (kind
// kFrameJournalEntry; the frame's fingerprint field carries the round key,
// its generation field the append sequence number). Loading stops at the
// first frame that fails to decode: a torn tail — the expected state after
// a crash mid-append — silently costs exactly the entries that were never
// durably written, nothing more.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "durable/vfs.hpp"

namespace fdml {

/// Digest identifying a task by its computational content. Tasks with the
/// same tree, focus taxon and regraft marker (taxa and screen) are the same
/// work; a marked task and an unmarked one of the same tree are not.
std::uint64_t task_content_digest(const std::string& newick, int focus_taxon,
                                  const std::array<int, 3>& regraft_taxa,
                                  double screen_lnl);

/// Digest identifying a round by the ordered content of its tasks.
std::uint64_t round_content_key(const std::vector<std::uint64_t>& task_digests);

/// One completed task, as remembered by the journal.
struct JournalEntry {
  std::uint64_t round_key = 0;
  std::uint64_t task_digest = 0;
  double log_likelihood = 0.0;
  std::string newick;
  double cpu_seconds = 0.0;
};

class TaskJournal {
 public:
  /// `vfs` may be null (real filesystem). Construction does no I/O; call
  /// load() or reset() to bind to the on-disk state.
  TaskJournal(std::string path, Vfs* vfs = nullptr);

  /// Reads existing entries, tolerating a torn tail. Returns the number of
  /// entries recovered. Missing file = empty journal.
  std::size_t load();

  /// Truncates the journal (start of a fresh run).
  void reset();

  /// Durably appends one entry (fsynced before return). Throws
  /// std::system_error on I/O failure.
  void append(const JournalEntry& entry);

  /// The remembered result for (round_key, task_digest), or null.
  const JournalEntry* find(std::uint64_t round_key,
                           std::uint64_t task_digest) const;

  std::size_t size() const { return entries_.size(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Vfs* vfs_;
  std::vector<JournalEntry> entries_;
  /// (round_key, task_digest) -> index into entries_.
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t next_sequence_ = 1;

  static std::uint64_t index_key(std::uint64_t round_key,
                                 std::uint64_t task_digest);
};

}  // namespace fdml
