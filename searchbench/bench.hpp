// Instruments the search benchmark wraps around fdml from the outside: a
// timing TaskRunner decorator, a timing Vfs decorator, an in-memory span log,
// and the metric arithmetic built on what they record. Nothing here enables
// the program's own tracer; every number comes from calls the benchmark
// makes or wraps.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "durable/vfs.hpp"
#include "search/runner.hpp"

namespace searchbench {

/// Seconds on some clock. Decorators take one so the self-test can script
/// time instead of sleeping.
using Clock = double (*)();
double steady_seconds();
double process_cpu_seconds();

// ---------------------------------------------------------------------------
// Spans

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::uint64_t thread = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span on this thread
};

/// Per-name totals: self time is a span's duration minus the part its child
/// spans cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// In-memory span log. Spans nest per thread; records are kept until the
/// benchmark writes them out at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock clock = steady_seconds) : clock_(clock) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::int64_t open(std::string_view name);
  void close(std::int64_t id);

  std::vector<SpanRecord> records() const;
  std::map<std::string, SpanTotals> totals() const;
  /// Chrome trace_event JSON (complete events, one per span).
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock clock_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;
};

/// RAII span; a null log records nothing.
class Span {
 public:
  Span(SpanLog* log, std::string_view name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

// ---------------------------------------------------------------------------
// TaskRunner decorator

/// Round kinds as the stepwise search issues them. Rearrangement rounds carry
/// the full-smoothing candidates; a winner round fully smooths the best
/// insertion; the initial round optimizes the first triplet.
enum class RoundKind { kInitial = 0, kInsertion, kWinner, kRearrange };
const char* round_kind_name(RoundKind kind);

struct RoundRecord {
  RoundKind kind = RoundKind::kRearrange;
  std::size_t tasks = 0;
  double start = 0.0;  ///< wall clock at run_round entry
  double end = 0.0;
  double task_cpu_s = 0.0;  ///< sum of TaskStat::cpu_seconds
  std::uint64_t bytes = 0;  ///< sum of TaskStat::bytes (wire_bytes)
};

struct CapturedTask {
  RoundKind kind = RoundKind::kRearrange;
  std::size_t round = 0;  ///< index into TimingRunner::rounds()
  fdml::TreeTask task;
};

/// Times every round of the wrapped runner. Kinds are told apart from the
/// tasks alone: focus tasks are insertions, round 0 of a search is the
/// initial triplet, and a full-smoothing round that follows an insertion
/// round on the same thread is that insertion's winner. (Job rounds run on
/// their job's thread, so interleaved jobs classify independently.)
class TimingRunner final : public fdml::TaskRunner {
 public:
  TimingRunner(fdml::TaskRunner& inner, Clock clock = steady_seconds,
               Clock cpu_clock = process_cpu_seconds, SpanLog* spans = nullptr,
               bool capture = false)
      : inner_(inner),
        clock_(clock),
        cpu_clock_(cpu_clock),
        spans_(spans),
        capture_(capture) {}

  fdml::RoundOutcome run_round(const std::vector<fdml::TreeTask>& tasks) override;
  int worker_count() const override { return inner_.worker_count(); }

  /// Rounds so far (read once the runner is idle).
  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  const std::vector<CapturedTask>& captured() const { return captured_; }
  /// Wall and process-CPU clock at the first round's dispatch.
  double first_start() const { return first_start_; }
  double first_cpu() const { return first_cpu_; }

 private:
  fdml::TaskRunner& inner_;
  Clock clock_;
  Clock cpu_clock_;
  SpanLog* spans_;
  bool capture_;
  std::mutex mutex_;  // rounds arrive from job threads (serialized by the gate)
  std::vector<RoundRecord> rounds_;
  std::vector<CapturedTask> captured_;
  std::map<std::thread::id, RoundKind> last_kind_;
  double first_start_ = -1.0;
  double first_cpu_ = 0.0;
};

// ---------------------------------------------------------------------------
// Vfs decorator

struct VfsTally {
  /// Atomic file replacements (renames). A checkpoint generation commits
  /// two: the generation file and the base file.
  std::uint64_t commits = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  /// Wall time inside mutating calls (write, append, rename, remove, sync).
  double write_s = 0.0;
};

class TimingVfs final : public fdml::Vfs {
 public:
  explicit TimingVfs(fdml::Vfs& inner, Clock clock = steady_seconds,
                     SpanLog* spans = nullptr)
      : inner_(inner), clock_(clock), spans_(spans) {}

  void write_file(const std::string& path, const std::uint8_t* data,
                  std::size_t size) override;
  void append_file(const std::string& path, const std::uint8_t* data,
                   std::size_t size) override;
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void remove_file(const std::string& path) override;
  bool exists(const std::string& path) override;
  std::vector<std::string> list_dir(const std::string& dir) override;
  void sync_dir(const std::string& dir) override;

  VfsTally tally() const;

 private:
  /// Runs `op` under a span and adds its wall time to write_s.
  template <typename Op>
  void timed_write(std::string_view span_name, Op&& op);

  fdml::Vfs& inner_;
  Clock clock_;
  SpanLog* spans_;
  mutable std::mutex mutex_;
  VfsTally tally_;
};

// ---------------------------------------------------------------------------
// Metric arithmetic

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// What a list of rounds adds up to.
struct RoundTally {
  std::uint64_t rounds = 0;
  std::uint64_t tasks = 0;
  std::uint64_t insertion_tasks = 0;
  std::uint64_t full_tasks = 0;  ///< initial + winner + rearrangement tasks
  std::uint64_t rearrange_tasks = 0;
  double round_s = 0.0;  ///< sum of round wall times
  double task_cpu_s = 0.0;
  double rearrange_cpu_s = 0.0;
  std::uint64_t bytes = 0;
};
RoundTally tally_rounds(const std::vector<RoundRecord>& rounds);

/// Share of worker time spent evaluating: task CPU over workers x round wall.
double worker_busy_share(const RoundTally& t, int workers);
/// Worker time inside rounds not spent on task CPU, per task, in us:
/// (workers x round wall - task CPU) / tasks.
double dispatch_overhead_us_per_task(const RoundTally& t, int workers);

}  // namespace searchbench
