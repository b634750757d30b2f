#include "service/scheduler.hpp"

#include <algorithm>
#include <filesystem>

#include "obs/trace.hpp"
#include "seq/fingerprint.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace fdml {

namespace {

/// Supervisor retry n waits kRetryBackoff * 2^(n-1) (jittered), capped at
/// kRetryBackoffMax.
constexpr std::chrono::milliseconds kRetryBackoff{100};
constexpr std::chrono::milliseconds kRetryBackoffMax{2000};

std::chrono::milliseconds jittered(std::chrono::milliseconds backoff,
                                   Rng& rng) {
  const auto half = backoff.count() / 2;
  return std::chrono::milliseconds(
      half + static_cast<long long>(rng.below(
                 static_cast<std::uint64_t>(backoff.count() - half + 1))));
}

}  // namespace

RoundOutcome RoundGate::run_round(const std::vector<TreeTask>& tasks) {
  std::uint64_t ticket;
  {
    std::unique_lock lock(mutex_);
    ticket = next_ticket_++;
    cv_.wait(lock, [&] { return serving_ == ticket; });
  }
  // The inner round runs unlocked (it blocks on the fabric); the ticket is
  // what excludes other jobs. An exception still advances the line.
  std::exception_ptr error;
  RoundOutcome outcome;
  try {
    outcome = inner_.run_round(tasks);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard lock(mutex_);
    ++serving_;
  }
  cv_.notify_all();
  if (error) std::rethrow_exception(error);
  return outcome;
}

JobScheduler::JobScheduler(const PatternAlignment& data,
                           TaskRunner& shared_runner, SchedulerOptions options)
    : data_(data),
      gate_(shared_runner),
      options_(std::move(options)),
      registry_(options_.metrics != nullptr ? *options_.metrics
                                            : obs::MetricsRegistry::process()),
      admission_(options_.admission, registry_),
      dataset_fingerprint_(alignment_fingerprint(data)) {
  if (!options_.checkpoint_dir.empty()) {
    // Durable checkpoints are the whole point of the supervisor; a missing
    // directory must not turn every attempt into an instant failure.
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    if (ec) {
      FDML_WARN("service") << "could not create checkpoint dir "
                           << options_.checkpoint_dir << ": " << ec.message();
    }
  }
}

JobScheduler::~JobScheduler() {
  drain();
  for (auto& thread : supervisors_) {
    if (thread.joinable()) thread.join();
  }
}

std::string JobScheduler::checkpoint_path_for(const JobSpec& spec) const {
  if (options_.checkpoint_dir.empty()) return {};
  // Keyed by seed, not job id: a resubmission of the same spec after a
  // drain (a fresh job id) finds and resumes the interrupted checkpoint.
  return options_.checkpoint_dir + "/job-seed-" + std::to_string(spec.seed) +
         ".ckpt";
}

JobScheduler::Submission JobScheduler::submit(const JobSpec& spec) {
  if (const auto reject = admission_.try_admit()) {
    obs::instant("service", "job_rejected", "reason",
                 static_cast<int>(*reject));
    FDML_INFO("service") << "job shed (" << reject_reason_name(*reject)
                         << "): seed " << spec.seed;
    return Submission{0, *reject};
  }
  std::lock_guard lock(mutex_);
  const std::uint64_t job_id = next_job_id_++;
  registry_.counter("job." + std::to_string(job_id) + ".admitted").add();
  probes_.emplace(job_id, std::make_shared<ProgressProbe>());
  supervisors_.emplace_back(
      [this, spec, job_id] { run_job(spec, job_id); });
  return Submission{job_id, std::nullopt};
}

void JobScheduler::run_job(JobSpec spec, std::uint64_t job_id) {
  obs::set_thread_name("job-" + std::to_string(job_id));
  {
    std::unique_lock lock(mutex_);
    slot_cv_.wait(lock, [&] {
      return active_ < options_.admission.max_active ||
             stop_flag_.load(std::memory_order_acquire);
    });
    if (stop_flag_.load(std::memory_order_acquire)) {
      // Drained before this job ever ran a round: it never touched the
      // pool, so it is resumable from scratch (generation 0) or from the
      // checkpoint a previous incarnation of its seed left behind.
      lock.unlock();
      JobOutcome outcome;
      outcome.job_id = job_id;
      outcome.status = JobStatus::kInterrupted;
      finish(job_id, std::move(outcome));
      admission_.release();
      return;
    }
    ++active_;
  }
  registry_.gauge("service.jobs_active").add(1);
  JobOutcome outcome = attempt_loop(spec, job_id);
  registry_.gauge("service.jobs_active").add(-1);
  {
    std::lock_guard lock(mutex_);
    --active_;
  }
  slot_cv_.notify_one();
  finish(job_id, std::move(outcome));
  admission_.release();
}

JobOutcome JobScheduler::attempt_loop(const JobSpec& spec,
                                      std::uint64_t job_id) {
  const std::string prefix = "job." + std::to_string(job_id);
  std::shared_ptr<ProgressProbe> probe;
  {
    std::lock_guard lock(mutex_);
    probe = probes_.at(job_id);
  }
  JobOutcome out;
  out.job_id = job_id;
  Rng rng(spec.seed ^ (job_id * 0x9e3779b97f4a7c15ULL));
  auto backoff = kRetryBackoff;
  int attempt = 0;
  for (;;) {
    ++attempt;
    try {
      SearchOptions o;
      o.seed = spec.seed;
      o.rearrange_cross = spec.rearrange_cross;
      o.final_rearrange_cross = spec.final_rearrange_cross;
      o.record_trace = false;
      o.vfs = options_.vfs;
      o.dataset_fingerprint = dataset_fingerprint_;
      o.checkpoint_path = checkpoint_path_for(spec);
      o.stop_requested = [this] {
        return stop_flag_.load(std::memory_order_acquire);
      };
      o.progress = probe.get();
      // Every attempt starts from the newest durable checkpoint: a retry
      // after a mid-round failure repeats only the interrupted stretch, and
      // a resubmission after a drain continues where the drain stopped.
      std::optional<RecoveredCheckpoint> recovered;
      if (!o.checkpoint_path.empty()) {
        recovered =
            recover_checkpoint(o.checkpoint_path, dataset_fingerprint_, o.vfs);
        if (recovered && recovered->checkpoint.seed != o.seed) {
          // A different spec's leftovers at a colliding path; never resume
          // a foreign search state.
          recovered.reset();
        }
      }
      obs::Span span("job", "attempt", "job", static_cast<int>(job_id));
      registry_.counter(prefix + ".attempts").add();
      StepwiseSearch search(data_, o);
      const SearchResult result = recovered
                                      ? search.resume(gate_, recovered->checkpoint)
                                      : search.run(gate_);
      out.status = JobStatus::kDone;
      out.newick = result.best_newick;
      out.log_likelihood = result.best_log_likelihood;
      return out;
    } catch (const SearchInterrupted& interrupted) {
      out.status = JobStatus::kInterrupted;
      out.resume_generation = interrupted.generation();
      FDML_INFO("service") << "job " << job_id
                           << " interrupted; resumable at generation "
                           << interrupted.generation();
      return out;
    } catch (const std::exception& e) {
      out.error = e.what();
      if (attempt > options_.max_retries) {
        out.status = JobStatus::kFailed;
        return out;
      }
      out.retries = static_cast<std::uint32_t>(attempt);
      registry_.counter(prefix + ".retries").add();
      registry_.counter("service.job_retries").add();
      FDML_WARN("service") << "job " << job_id << " attempt " << attempt
                           << " failed (" << e.what() << "); retrying";
      std::this_thread::sleep_for(jittered(backoff, rng));
      backoff = std::min(backoff * 2, kRetryBackoffMax);
    }
  }
}

void JobScheduler::finish(std::uint64_t job_id, JobOutcome outcome) {
  const char* status = outcome.status == JobStatus::kDone ? "completed"
                       : outcome.status == JobStatus::kInterrupted
                           ? "interrupted"
                           : "failed";
  registry_.counter(std::string("service.jobs_") + status).add();
  registry_.counter("job." + std::to_string(job_id) + "." + status).add();
  obs::instant("job", status, "job", static_cast<int>(job_id));
  {
    std::lock_guard lock(mutex_);
    done_[job_id] = std::move(outcome);
  }
  done_cv_.notify_all();
}

JobOutcome JobScheduler::wait(std::uint64_t job_id) {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return done_.count(job_id) != 0; });
  return done_.at(job_id);
}

void JobScheduler::drain() {
  admission_.drain();
  stop_flag_.store(true, std::memory_order_release);
  slot_cv_.notify_all();
}

void JobScheduler::wait_all() {
  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return done_.size() + 1 == next_job_id_; });
}

std::vector<JobOutcome> JobScheduler::outcomes() const {
  std::lock_guard lock(mutex_);
  std::vector<JobOutcome> all;
  all.reserve(done_.size());
  for (const auto& [id, outcome] : done_) all.push_back(outcome);
  return all;
}

std::vector<obs::JobProgressRow> JobScheduler::progress() const {
  std::lock_guard lock(mutex_);
  std::vector<obs::JobProgressRow> rows;
  rows.reserve(probes_.size());
  for (const auto& [id, probe] : probes_) {
    obs::JobProgressRow row;
    row.job_id = id;
    const int phase = probe->phase.load(std::memory_order_relaxed);
    row.phase = phase == static_cast<int>(SearchPhase::kRearrange)
                    ? "rearrange"
                    : (phase == static_cast<int>(SearchPhase::kAddition)
                           ? "addition"
                           : "idle");
    row.taxa_in_tree = probe->taxa_in_tree.load(std::memory_order_relaxed);
    row.round = probe->round.load(std::memory_order_relaxed);
    row.tasks_done = probe->tasks_done.load(std::memory_order_relaxed);
    row.tasks_total = probe->tasks_total.load(std::memory_order_relaxed);
    if (const auto best = probe->best()) {
      row.best_log_likelihood = *best;
      row.has_best = true;
    }
    row.checkpoint_generation =
        probe->checkpoint_generation.load(std::memory_order_relaxed);
    rows.push_back(std::move(row));
  }
  return rows;
}

SchedulerStats JobScheduler::stats() const {
  const auto snapshot = registry_.snapshot();
  SchedulerStats s;
  s.submitted = snapshot.counter("service.jobs_submitted");
  s.admitted = snapshot.counter("service.jobs_admitted");
  s.rejected_full = snapshot.counter("service.jobs_rejected_full");
  s.rejected_draining = snapshot.counter("service.jobs_rejected_draining");
  s.completed = snapshot.counter("service.jobs_completed");
  s.failed = snapshot.counter("service.jobs_failed");
  s.interrupted = snapshot.counter("service.jobs_interrupted");
  s.retries = snapshot.counter("service.job_retries");
  s.in_flight = s.admitted - s.completed - s.failed - s.interrupted;
  return s;
}

}  // namespace fdml
