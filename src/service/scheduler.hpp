// The job scheduler: many concurrent searches multiplexed over one shared
// worker pool, each under its own supervisor.
//
//   - Fairness: the shared TaskRunner evaluates one round at a time (the
//     round is the protocol's barrier), so RoundGate serializes rounds in
//     FIFO ticket order. A job has at most one round outstanding, which
//     makes FIFO arrival order effectively round-robin across active jobs —
//     no job can occupy the pool for two consecutive rounds while another
//     is waiting.
//   - Supervision: each job runs in its own thread under a retry loop with
//     bounded exponential backoff + jitter, reusing the durable checkpoint
//     machinery (PR 3): every attempt first tries to recover the job's
//     checkpoint, so a retry — or a resubmission after a drain — resumes
//     instead of starting over, and the finished tree is bit-for-bit the
//     uninterrupted run's. One job's failure never touches its neighbors.
//   - Drain: stop admitting (the admission gate rejects with kDraining),
//     flip every in-flight job's stop flag so it checkpoints durably at the
//     next boundary and reports its resumable generation, and let queued
//     jobs return kInterrupted untouched.
//
// Observability: aggregate counters under service.*, per-job counters and
// trace spans under job.<id>.*.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.hpp"
#include "search/search.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"

namespace fdml {

/// FIFO-ticket serialization of a shared TaskRunner. run_round is not
/// thread-safe on any backend (the round protocol is a barrier), so every
/// job's rounds pass through this gate; ticket order is arrival order,
/// which with one-round-at-a-time jobs is round-robin service.
class RoundGate final : public TaskRunner {
 public:
  explicit RoundGate(TaskRunner& inner) : inner_(inner) {}

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override;
  int worker_count() const override { return inner_.worker_count(); }

 private:
  TaskRunner& inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ = 0;
};

struct SchedulerOptions {
  AdmissionOptions admission;
  /// Supervisor retry budget per job: attempts beyond the first. Retries
  /// resume from the job's newest checkpoint when one exists, after a
  /// jittered exponential backoff (100 ms doubling to 2 s).
  int max_retries = 2;
  /// Directory for per-job durable checkpoints; empty disables them (drain
  /// then cannot promise resumability). Checkpoints are keyed by jumble
  /// seed, so resubmitting the same spec after a drain resumes it.
  std::string checkpoint_dir;
  Vfs* vfs = nullptr;
  /// null = the process registry.
  obs::MetricsRegistry* metrics = nullptr;
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t interrupted = 0;
  std::uint64_t retries = 0;
  /// Admitted jobs with no terminal outcome — the "zero lost jobs"
  /// invariant the soak asserts on. Nonzero only while jobs are in flight.
  std::uint64_t in_flight = 0;
};

class JobScheduler {
 public:
  /// `data` and `shared_runner` must outlive the scheduler.
  JobScheduler(const PatternAlignment& data, TaskRunner& shared_runner,
               SchedulerOptions options);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  struct Submission {
    std::uint64_t job_id = 0;
    /// Empty = admitted; otherwise the shed reason (job_id is 0).
    std::optional<RejectReason> rejected;
  };

  /// Admission-checked submit; an admitted job starts (or queues for an
  /// active slot) immediately on its own supervisor thread.
  Submission submit(const JobSpec& spec);

  /// Blocks until the job reaches a terminal outcome.
  JobOutcome wait(std::uint64_t job_id);

  /// Stop admitting and interrupt every job at its next durable checkpoint
  /// boundary. Queued jobs finish as kInterrupted without starting.
  void drain();
  bool draining() const { return admission_.draining(); }

  /// Blocks until every admitted job has a terminal outcome.
  void wait_all();

  /// Terminal outcomes so far, in job-id order.
  std::vector<JobOutcome> outcomes() const;

  /// Live per-job progress (telemetry plane): one row per admitted job,
  /// read from each job's ProgressProbe — current phase, rearrangement
  /// round, task counts, best lnL, last committed checkpoint generation.
  /// Finished jobs keep their final row so a scrape straddling completion
  /// still sees monotonic values.
  std::vector<obs::JobProgressRow> progress() const;

  SchedulerStats stats() const;

 private:
  void run_job(JobSpec spec, std::uint64_t job_id);
  JobOutcome attempt_loop(const JobSpec& spec, std::uint64_t job_id);
  std::string checkpoint_path_for(const JobSpec& spec) const;
  void finish(std::uint64_t job_id, JobOutcome outcome);

  const PatternAlignment& data_;
  RoundGate gate_;
  SchedulerOptions options_;
  obs::MetricsRegistry& registry_;
  AdmissionController admission_;
  std::uint64_t dataset_fingerprint_ = 0;

  std::atomic<bool> stop_flag_{false};

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  /// Active-slot accounting (bounded by admission.max_active).
  std::condition_variable slot_cv_;
  int active_ = 0;
  std::uint64_t next_job_id_ = 1;
  std::map<std::uint64_t, JobOutcome> done_;
  /// One probe per admitted job, created at submit and kept after the job
  /// finishes. shared_ptr: the supervisor thread holds a reference across
  /// the attempt, so progress() never races a map rehash.
  std::map<std::uint64_t, std::shared_ptr<ProgressProbe>> probes_;
  std::vector<std::thread> supervisors_;
};

}  // namespace fdml
