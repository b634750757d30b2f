#include "parallel/foreman.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "comm/integrity.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol.hpp"
#include "search/runner.hpp"
#include "util/log.hpp"

namespace fdml {

namespace {

using Clock = std::chrono::steady_clock;

/// Adaptive deadlines: EWMA(task duration) x kTimeoutSlack, clamped to
/// [kTimeoutFloor, worker_timeout]. The floor keeps heterogeneous task
/// sizes (and sanitizer slowdowns) from triggering spurious delinquencies
/// after a streak of cheap tasks.
constexpr double kTimeoutSlack = 4.0;
constexpr std::chrono::milliseconds kTimeoutFloor{2000};
/// New-round amnesty: a suspect with at most this many consecutive strikes
/// re-enters probation (one probe at the next dispatch) when the next round
/// begins — a dropped reply must not exile a live worker forever. Workers
/// beyond the limit stay suspect so a genuinely dead fabric fails rounds
/// fast instead of re-probing corpses each round.
constexpr int kAmnestyMaxStrikes = 3;

/// Where each ForemanStats field lives in the registry. ForemanStats is a
/// view: the growth of these counters since the foreman started, so it
/// reports only its own work while a shared registry accumulates
/// whole-run totals.
constexpr obs::CounterField<ForemanStats> kForemanFields[] = {
    {"foreman.rounds", &ForemanStats::rounds},
    {"foreman.tasks_dispatched", &ForemanStats::tasks_dispatched},
    {"foreman.tasks_completed", &ForemanStats::tasks_completed},
    {"foreman.requeues", &ForemanStats::requeues},
    {"foreman.delinquencies", &ForemanStats::delinquencies},
    {"foreman.reinstatements", &ForemanStats::reinstatements},
    {"foreman.late_duplicate_results", &ForemanStats::late_duplicate_results},
    {"foreman.mismatched_results", &ForemanStats::mismatched_results},
    {"foreman.corrupt_messages", &ForemanStats::corrupt_messages},
    {"foreman.quarantines", &ForemanStats::quarantines},
    {"foreman.probations", &ForemanStats::probations},
    {"foreman.probation_probes", &ForemanStats::probation_probes},
    {"foreman.probation_passes", &ForemanStats::probation_passes},
    {"foreman.probation_failures", &ForemanStats::probation_failures},
    {"foreman.task_nacks", &ForemanStats::task_nacks},
    {"foreman.rejected_tasks", &ForemanStats::rejected_tasks},
    {"foreman.rounds_failed", &ForemanStats::rounds_failed},
    {"foreman.unexpected_tags", &ForemanStats::unexpected_tags},
    {"foreman.heartbeat_pings", &ForemanStats::heartbeat_pings},
    {"foreman.hellos", &ForemanStats::hellos},
};

/// Worker health state machine (DESIGN.md "Worker health model"):
///   Healthy --timeout/corrupt--> Suspect/quarantine --reply--> Probation
///   Probation --probe ok--> Healthy; --probe timeout--> Suspect (strike+1)
enum class WorkerState { kHealthy, kSuspect, kProbation };

struct WorkerHealth {
  WorkerState state = WorkerState::kHealthy;
  /// EWMA of observed task durations, driving the adaptive deadline.
  double ewma_ms = 0.0;
  bool has_ewma = false;
  /// Consecutive delinquencies/quarantines; past kAmnestyMaxStrikes a
  /// suspect waits for its own reply or hello.
  int strikes = 0;
  /// When the worker last went delinquent (feeds the all-dead grace window).
  Clock::time_point suspect_since{};
  /// In probation via new-round amnesty, i.e. without having been heard
  /// from since its delinquency — its first reply still counts as the
  /// paper's reinstatement.
  bool awaiting_contact = false;
};

/// One task dispatched to a worker. Only the running task's record has a
/// clock: it starts when the task goes to an idle worker, or, for a task
/// queued behind another, when the task ahead of it returns (the worker
/// started it then, without waiting for the foreman).
struct DispatchRecord {
  TreeTask task;
  Clock::time_point started_at{};
  Clock::time_point deadline_at{};
  bool probe = false;
};

/// A worker's dispatch records: its running task and at most one more,
/// sent right behind it, that waits in the worker's mailbox or socket.
struct HeldTasks {
  DispatchRecord running;
  std::optional<DispatchRecord> queued;
};

struct RoundState {
  std::uint64_t round_id = 0;
  std::size_t expected = 0;
  std::set<std::uint64_t> completed;
  TaskResult best;
  bool have_best = false;
  std::vector<TaskStat> stats;
  /// Serialized task size per task id (recorded at dispatch), for the
  /// wire-bytes accounting.
  std::map<std::uint64_t, std::uint64_t> task_bytes;
};

class Foreman {
 public:
  Foreman(Transport& transport, const ForemanOptions& options)
      : transport_(transport),
        options_(options),
        registry_(options.metrics != nullptr ? *options.metrics
                                             : obs::MetricsRegistry::process()),
        counters_(registry_),
        start_(counters_.read()) {}

  ForemanStats run() {
    obs::set_thread_name("foreman");
    if (options_.heartbeat_interval.count() > 0) {
      next_ping_ = Clock::now() + options_.heartbeat_interval;
    }
    if (options_.telemetry_interval.count() > 0) {
      telemetry_.emplace(registry_, transport_.rank());
      next_telemetry_ = Clock::now() + options_.telemetry_interval;
    }
    for (;;) {
      const auto message = receive();
      if (!message.has_value()) {
        // Either a deadline passed (handled inside receive) or the fabric
        // shut down under us.
        if (fabric_closed_ || transport_.closed()) break;
        continue;
      }
      switch (message->tag) {
        case MessageTag::kHello:
          handle_hello(message->source);
          break;
        case MessageTag::kRound:
          handle_round(message->source, message->payload);
          break;
        case MessageTag::kResult:
          handle_result(message->source, message->payload);
          break;
        case MessageTag::kNack:
          handle_nack(message->source, message->payload);
          break;
        case MessageTag::kShutdown:
          broadcast_shutdown();
          return finish();
        default:
          counters_.bump<&ForemanStats::unexpected_tags>();
          FDML_WARN("foreman") << "unexpected tag "
                               << static_cast<int>(message->tag) << " from rank "
                               << message->source;
      }
    }
    return finish();
  }

 private:
  /// Receives with a deadline derived from in-flight dispatch records and
  /// the round's timers; expires overdue workers before returning.
  std::optional<Message> receive() {
    check_round_viability();
    const auto wake = next_wake();
    std::optional<Message> message;
    if (!wake.has_value()) {
      message = transport_.recv();
      if (!message.has_value()) fabric_closed_ = true;
    } else {
      const auto now = Clock::now();
      const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::max(*wake - now, Clock::duration::zero()));
      message = transport_.recv_for(wait + std::chrono::milliseconds(1));
    }
    expire_overdue();
    maybe_heartbeat();
    maybe_emit_telemetry();
    dispatch_work();
    return message;
  }

  /// Ships the registry's delta since the previous frame to the master.
  /// Fires from the same event loop as the heartbeat, so an idle foreman
  /// still beacons — the aggregator reads silence as staleness.
  void maybe_emit_telemetry() {
    if (!telemetry_.has_value()) return;
    const auto now = Clock::now();
    if (now < next_telemetry_) return;
    next_telemetry_ = now + options_.telemetry_interval;
    auto payload = telemetry_->collect().pack();
    seal_payload(payload);
    transport_.send(kMasterRank, MessageTag::kTelemetry, std::move(payload));
  }

  /// Ping silent (never-helloed, e.g. restarted) and suspect workers so a
  /// live one re-introduces itself; its hello walks it into probation and,
  /// after a clean probe, back to the ready queue. Without this a worker
  /// whose connection was severed and transparently reconnected would stay
  /// exiled forever — nothing on its side knows a re-hello is owed.
  void maybe_heartbeat() {
    if (options_.heartbeat_interval.count() == 0) return;
    const auto now = Clock::now();
    if (now < next_ping_) return;
    next_ping_ = now + options_.heartbeat_interval;
    for (int rank = kFirstWorkerRank; rank < transport_.size(); ++rank) {
      const auto it = health_.find(rank);
      const bool silent = it == health_.end();
      const bool suspect =
          !silent && it->second.state == WorkerState::kSuspect;
      if (!silent && !suspect) continue;
      counters_.bump<&ForemanStats::heartbeat_pings>();
      transport_.send(rank, MessageTag::kPing, {});
    }
  }

  /// Earliest of: an in-flight deadline, the all-delinquent declare, the
  /// next heartbeat or telemetry frame. nullopt = nothing pending, block
  /// indefinitely.
  std::optional<Clock::time_point> next_wake() const {
    std::optional<Clock::time_point> earliest;
    auto consider = [&](Clock::time_point t) {
      if (!earliest.has_value() || t < *earliest) earliest = t;
    };
    for (const auto& [worker, held] : in_flight_) {
      consider(held.running.deadline_at);
    }
    if (const auto declare = dead_declare_at()) consider(*declare);
    if (options_.heartbeat_interval.count() > 0) consider(next_ping_);
    if (telemetry_.has_value()) consider(next_telemetry_);
    return earliest;
  }

  WorkerHealth& health(int worker) { return health_[worker]; }

  /// Adaptive per-worker deadline: EWMA x slack, clamped to
  /// [kTimeoutFloor, worker_timeout]; flat worker_timeout before any
  /// observation.
  Clock::duration deadline_for(int worker) {
    const WorkerHealth& h = health(worker);
    if (!h.has_ewma) return options_.worker_timeout;
    const auto adaptive = std::chrono::milliseconds(
        static_cast<std::int64_t>(h.ewma_ms * kTimeoutSlack));
    return std::min<std::chrono::milliseconds>(
        std::max<std::chrono::milliseconds>(adaptive, kTimeoutFloor),
        options_.worker_timeout);
  }

  void observe_duration(WorkerHealth& h, Clock::duration elapsed) {
    const double sample_ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    constexpr double kAlpha = 0.3;
    h.ewma_ms = h.has_ewma ? kAlpha * sample_ms + (1.0 - kAlpha) * h.ewma_ms
                           : sample_ms;
    h.has_ewma = true;
  }

  void send_sealed(int dest, MessageTag tag, std::vector<std::uint8_t> payload) {
    seal_payload(payload);
    transport_.send(dest, tag, std::move(payload));
  }

  /// Requeues the worker's tasks at the front of the queue, running task
  /// first, and erases its records. Does NOT touch worker health; callers
  /// decide that.
  void requeue_held(std::map<int, HeldTasks>::iterator it, const char* why) {
    const HeldTasks& held = it->second;
    if (held.queued.has_value()) requeue(it->first, held.queued->task, why);
    requeue(it->first, held.running.task, why);
    in_flight_.erase(it);
  }

  void requeue(int worker, const TreeTask& task, const char* why) {
    // Requeue at the front so the oldest tree goes out first — but only if
    // the round still needs it; a copy of a completed (or stale-round)
    // task would just circulate through dispatch and expiry.
    const bool still_needed = round_active_ &&
                              task.round_id == round_.round_id &&
                              round_.completed.count(task.task_id) == 0;
    if (still_needed) {
      work_queue_.push_front(task);
      counters_.bump<&ForemanStats::requeues>();
      obs::instant("foreman", "requeue", "task",
                   static_cast<std::int64_t>(task.task_id), "worker", worker);
      trace_queue_depth();
    }
    FDML_INFO("foreman") << "worker " << worker << " " << why
                         << (still_needed ? "; requeued task " : "; dropped task ")
                         << task.task_id;
  }

  void expire_overdue() {
    const auto now = Clock::now();
    std::vector<int> overdue;
    for (const auto& [worker, held] : in_flight_) {
      if (now >= held.running.deadline_at) overdue.push_back(worker);
    }
    for (int worker : overdue) {
      auto it = in_flight_.find(worker);
      const bool was_probe = it->second.running.probe;
      requeue_held(it, "timed out");
      WorkerHealth& h = health(worker);
      h.state = WorkerState::kSuspect;
      h.suspect_since = now;
      h.awaiting_contact = false;  // timed out again without a word
      ++h.strikes;
      counters_.bump<&ForemanStats::delinquencies>();
      if (was_probe) {
        counters_.bump<&ForemanStats::probation_failures>();
        obs::instant("foreman", "probe_fail", "worker", worker);
      }
      obs::instant("foreman", "delinquent", "worker", worker, "strikes",
                   h.strikes);
    }
  }

  /// Moves a worker into the probation queue: it receives one probe task
  /// at the next dispatch, and rejoins the ready queue only when the probe
  /// completes within its deadline.
  void enter_probation(int worker, bool quarantine) {
    WorkerHealth& h = health(worker);
    h.state = WorkerState::kProbation;
    h.awaiting_contact = false;  // entered via an actual message
    if (h.strikes < 1) h.strikes = 1;
    counters_.bump<&ForemanStats::probations>();
    if (quarantine) {
      counters_.bump<&ForemanStats::quarantines>();
    } else {
      // The paper's reinstatement path: a delinquent worker finally replied.
      counters_.bump<&ForemanStats::reinstatements>();
    }
    obs::instant("foreman", quarantine ? "quarantine" : "probation", "worker",
                 worker, "strikes", h.strikes);
  }

  /// Malformed payload: count, quarantine a worker sender, never die.
  void handle_corrupt(int sender) {
    counters_.bump<&ForemanStats::corrupt_messages>();
    obs::instant("foreman", "corrupt", "worker", sender);
    FDML_WARN("foreman") << "malformed payload from rank " << sender;
    if (sender < kFirstWorkerRank) return;  // master/monitor: count only
    if (auto it = in_flight_.find(sender); it != in_flight_.end()) {
      requeue_held(it, "sent a corrupt payload");
    }
    ready_.erase(std::remove(ready_.begin(), ready_.end(), sender), ready_.end());
    ++health(sender).strikes;
    enter_probation(sender, /*quarantine=*/true);
    dispatch_work();
  }

  void handle_hello(int worker) {
    counters_.bump<&ForemanStats::hellos>();
    WorkerHealth& h = health(worker);
    if (h.state == WorkerState::kSuspect) {
      enter_probation(worker, /*quarantine=*/false);
    } else if (h.state == WorkerState::kHealthy) {
      mark_ready(worker);
    }
    dispatch_work();
  }

  void handle_round(int source, const std::vector<std::uint8_t>& payload) {
    std::optional<RoundMessage> message =
        open_sealed(payload, RoundMessage::unpack);
    if (!message.has_value()) {
      handle_corrupt(source);
      return;
    }
    begin_round(std::move(*message));
  }

  void begin_round(RoundMessage message) {
    // Anything still queued is a requeued copy of a task the previous round
    // already completed (the master opens a round only after RoundDone), so
    // drop it — under aggressive timeouts such copies otherwise circulate
    // through dispatch/expire forever and the work queue grows every round.
    work_queue_.clear();
    round_ = RoundState{};
    round_.round_id = message.round_id;
    round_.expected = message.tasks.size();
    round_active_ = true;
    // New-round amnesty: a suspect never gets dispatched to and an idle
    // worker never speaks unprompted, so without this a single dropped
    // reply would exile a live worker for the rest of the run. Give
    // lightly-struck suspects one probe; leave the rest suspect so a dead
    // fabric still fails the round quickly.
    for (auto& [worker, h] : health_) {
      if (h.state == WorkerState::kSuspect &&
          h.strikes <= kAmnestyMaxStrikes) {
        h.state = WorkerState::kProbation;
        h.awaiting_contact = true;
        counters_.bump<&ForemanStats::probations>();
        obs::instant("foreman", "probation", "worker", worker, "strikes",
                     h.strikes);
      }
    }
    counters_.bump<&ForemanStats::rounds>();
    begin_round_span(round_.round_id, static_cast<std::int64_t>(round_.expected));
    for (TreeTask& task : message.tasks) work_queue_.push_back(std::move(task));
    trace_queue_depth();
    dispatch_work();
  }

  /// Starts a running record's clock: its deadline and its duration sample
  /// run from now.
  void start(int worker, DispatchRecord& record) {
    record.started_at = Clock::now();
    record.deadline_at = record.started_at + deadline_for(worker);
  }

  /// Sends the queue's front task to `worker`: as its running task when it
  /// holds none, else queued behind the running one.
  void dispatch_to(int worker, bool probe) {
    DispatchRecord record{std::move(work_queue_.front()), {}, {}, probe};
    work_queue_.pop_front();
    const TreeTask& task = record.task;
    Packer packer;
    task.pack(packer);
    const bool again = round_.task_bytes.count(task.task_id) != 0;
    round_.task_bytes[task.task_id] = packer.size();
    send_sealed(worker, MessageTag::kTask, packer.take());
    counters_.bump<&ForemanStats::tasks_dispatched>();
    // Flow-begin on the foreman side of the dispatch->execute->result arc;
    // the worker's execute span adds the step and accept() closes it.
    obs::flow(obs::Phase::kFlowBegin,
              obs::task_flow_id(task.round_id, task.task_id), "worker", worker);
    trace_queue_depth();
    const auto held = in_flight_.find(worker);
    const bool running = held == in_flight_.end();
    if (running) start(worker, record);
    if (again) {
      // A requeued task going out again: what a stalled round's log shows.
      FDML_INFO("foreman")
          << "task " << task.task_id << " of round " << task.round_id
          << " dispatched again to worker " << worker
          << (running ? ", deadline in " +
                            std::to_string(deadline_for(worker) /
                                           std::chrono::milliseconds(1)) +
                            " ms"
                      : ", queued behind task " +
                            std::to_string(held->second.running.task.task_id));
    }
    if (running) {
      in_flight_.emplace(worker, HeldTasks{std::move(record), std::nullopt});
    } else {
      held->second.queued = std::move(record);
    }
  }

  /// The worker's running task returned: the task queued behind it, if
  /// any, becomes the running one, its clock starting now; otherwise the
  /// worker holds nothing.
  void promote_queued(std::map<int, HeldTasks>::iterator it) {
    HeldTasks& held = it->second;
    if (!held.queued.has_value()) {
      in_flight_.erase(it);
      return;
    }
    held.running = std::move(*held.queued);
    held.queued.reset();
    start(it->first, held.running);
  }

  void dispatch_work() {
    while (!work_queue_.empty() && !ready_.empty()) {
      const int worker = ready_.front();
      ready_.pop_front();
      dispatch_to(worker, /*probe=*/false);
    }
    if (work_queue_.empty()) return;
    // Probation: one probe task per probation worker that holds none;
    // passing it is the only way back into the ready queue.
    for (auto& [worker, h] : health_) {
      if (work_queue_.empty()) break;
      if (h.state != WorkerState::kProbation) continue;
      if (in_flight_.count(worker) != 0) continue;
      counters_.bump<&ForemanStats::probation_probes>();
      dispatch_to(worker, /*probe=*/true);
    }
    // Work is left after every ready worker has a task: queue one more
    // behind each healthy worker's running task, so the worker starts it
    // the moment the running one ends instead of a round trip later. A
    // probation worker holds only its probe.
    for (auto& [worker, held] : in_flight_) {
      if (work_queue_.empty()) break;
      if (held.queued.has_value()) continue;
      if (health(worker).state != WorkerState::kHealthy) continue;
      dispatch_to(worker, /*probe=*/false);
    }
  }

  /// Returns the worker to the ready queue unless it is unhealthy, still
  /// holds a task (the reply that leaves it holding none readies it) or is
  /// already queued. Keeping this the single entry point to ready_ keeps
  /// the invariant: a worker is in ready_ only while it holds no task, and
  /// it never holds more than two, its running task and one queued behind.
  void mark_ready(int worker) {
    if (health(worker).state != WorkerState::kHealthy) return;
    if (in_flight_.count(worker) != 0) return;
    if (std::find(ready_.begin(), ready_.end(), worker) != ready_.end()) return;
    ready_.push_back(worker);
  }

  /// A worker could not take its task. An empty NACK means the payload
  /// arrived malformed: requeue the worker's tasks (the foreman's pristine
  /// copies re-serialize cleanly) and keep the worker in rotation — the
  /// corruption happened in transit, not in it. A NACK carrying a
  /// TaskRejectedMessage means the worker's evaluator threw on the task:
  /// any worker would, so a rejection of the worker's running task fails
  /// the round, and a rejection of any other task is stale and dropped.
  void handle_nack(int worker, const std::vector<std::uint8_t>& payload) {
    counters_.bump<&ForemanStats::task_nacks>();
    obs::instant("foreman", "nack", "worker", worker);
    if (payload.empty()) {
      if (auto it = in_flight_.find(worker); it != in_flight_.end()) {
        requeue_held(it, "rejected a malformed task");
      }
    } else {
      const std::optional<TaskRejectedMessage> rejected =
          open_sealed(payload, TaskRejectedMessage::unpack);
      if (!rejected.has_value()) {
        handle_corrupt(worker);
        return;
      }
      counters_.bump<&ForemanStats::rejected_tasks>();
      const auto it = in_flight_.find(worker);
      if (round_active_ && rejected->round_id == round_.round_id &&
          it != in_flight_.end() &&
          it->second.running.task.round_id == rejected->round_id &&
          it->second.running.task.task_id == rejected->task_id) {
        promote_queued(it);
        fail_round("task " + std::to_string(rejected->task_id) +
                   " rejected: " + rejected->reason);
      } else {
        FDML_INFO("foreman") << "worker " << worker
                             << " rejected stale task " << rejected->task_id;
      }
    }
    if (health(worker).state == WorkerState::kSuspect) {
      enter_probation(worker, /*quarantine=*/false);
    } else {
      mark_ready(worker);
    }
    dispatch_work();
  }

  void handle_result(int worker, const std::vector<std::uint8_t>& payload) {
    std::optional<TaskResult> opened = open_sealed(payload, TaskResult::unpack);
    if (!opened.has_value()) {
      handle_corrupt(worker);
      return;
    }
    TaskResult& result = *opened;
    result.worker = worker;

    WorkerHealth& h = health(worker);
    if (h.awaiting_contact) {
      // First word from a worker that a new-round amnesty moved to
      // probation while it was still silent: this reply IS the paper's
      // "response received from the delinquent worker". Probation still
      // gates its re-entry, but the reinstatement is counted here, where
      // the contact actually happened.
      h.awaiting_contact = false;
      counters_.bump<&ForemanStats::reinstatements>();
      obs::instant("foreman", "reinstate", "worker", worker);
    }
    const auto held = in_flight_.find(worker);
    if (held != in_flight_.end()) {
      const DispatchRecord& running = held->second.running;
      if (running.task.round_id == result.round_id &&
          running.task.task_id == result.task_id) {
        observe_duration(h, Clock::now() - running.started_at);
        const bool was_probe = running.probe;
        promote_queued(held);
        if (was_probe) {
          h.state = WorkerState::kHealthy;
          h.strikes = 0;
          counters_.bump<&ForemanStats::probation_passes>();
          obs::instant("foreman", "probe_pass", "worker", worker);
        } else {
          h.strikes = 0;
        }
        mark_ready(worker);
      } else {
        // A reply that is not the running task's: a stale one for an
        // earlier (requeued) task, or the queued task's overtaking a lost
        // reply. The worker is still busy: keep both records and do NOT
        // ready it — doing so used to double-book the worker and silently
        // drop a held task when its record was overwritten. The result
        // itself may still complete the task (accept() deduplicates), so
        // fall through to accept below.
        counters_.bump<&ForemanStats::mismatched_results>();
        FDML_WARN("foreman") << "worker " << worker << " sent result for task "
                             << result.task_id << " while task "
                             << running.task.task_id << " is in flight";
      }
    } else if (h.state == WorkerState::kSuspect) {
      // A delinquent worker finally replied: probation, not unconditional
      // reinstatement. Its result may still complete the task below.
      enter_probation(worker, /*quarantine=*/false);
    } else if (h.state == WorkerState::kHealthy) {
      mark_ready(worker);
    }
    // kProbation with no record: a stale duplicate while awaiting its
    // probe — accept the data, leave the health state alone.

    accept(result, payload.size() - kSealSize);
    dispatch_work();
  }

  void accept(TaskResult& result, std::size_t result_bytes) {
    if (!round_active_ || result.round_id != round_.round_id ||
        round_.completed.count(result.task_id) != 0) {
      // Stale or duplicate (e.g. a requeued task completed twice).
      counters_.bump<&ForemanStats::late_duplicate_results>();
      return;
    }
    round_.completed.insert(result.task_id);
    obs::flow(obs::Phase::kFlowEnd,
              obs::task_flow_id(result.round_id, result.task_id), "worker",
              result.worker);
    // Drop every requeued copy still waiting in the queue — repeated
    // timeouts can have queued the same task more than once.
    work_queue_.erase(
        std::remove_if(work_queue_.begin(), work_queue_.end(),
                       [&](const TreeTask& task) {
                         return task.task_id == result.task_id;
                       }),
        work_queue_.end());
    TaskStat stat;
    stat.task_id = result.task_id;
    stat.cpu_seconds = result.cpu_seconds;
    stat.bytes = round_.task_bytes[result.task_id] + result_bytes;
    stat.worker = result.worker;
    round_.stats.push_back(stat);
    counters_.bump<&ForemanStats::tasks_completed>();
    trace_queue_depth();

    // Ties break toward the lowest task id — the order a serial run would
    // have kept — so the round winner is independent of completion order
    // and a chaos-scheduled run reproduces the fault-free tree exactly.
    const bool better =
        !round_.have_best ||
        result.log_likelihood > round_.best.log_likelihood ||
        (result.log_likelihood == round_.best.log_likelihood &&
         result.task_id < round_.best.task_id);
    if (better) {
      round_.best = std::move(result);
      round_.have_best = true;
    }

    ProgressMessage progress;
    progress.round_id = round_.round_id;
    progress.completed = round_.completed.size();
    progress.expected = round_.expected;
    send_sealed(kMasterRank, MessageTag::kProgress, progress.pack());

    if (round_.completed.size() == round_.expected) {
      RoundDoneMessage done;
      done.round_id = round_.round_id;
      done.best = round_.best;
      done.stats = std::move(round_.stats);
      send_sealed(kMasterRank, MessageTag::kRoundDone, done.pack());
      end_round_span(static_cast<std::int64_t>(round_.completed.size()));
      round_active_ = false;
    }
  }

  /// When the round is stuck — work waiting, nothing in flight, every known
  /// worker suspect — the instant it may be declared dead: one extra flat
  /// worker_timeout of silence after the newest delinquency. The grace
  /// window is what separates "all workers are slow" (a late reply still
  /// reinstates, the paper's behavior) from "all workers are gone".
  std::optional<Clock::time_point> dead_declare_at() const {
    if (!round_active_ || work_queue_.empty() || !in_flight_.empty()) {
      return std::nullopt;
    }
    if (health_.empty()) return std::nullopt;  // nobody ever said hello;
                                               // the master watchdog covers
    Clock::time_point newest{};
    for (const auto& [worker, h] : health_) {
      if (h.state != WorkerState::kSuspect) return std::nullopt;
      newest = std::max(newest, h.suspect_since);
    }
    return newest + options_.worker_timeout;
  }

  /// All-workers-dead detection: tell the master the round cannot finish so
  /// it can degrade to in-process evaluation instead of waiting forever.
  void check_round_viability() {
    const auto declare = dead_declare_at();
    if (!declare.has_value() || Clock::now() < *declare) return;
    fail_round("all workers delinquent");
  }

  /// Tells the master the active round cannot finish, so it can degrade to
  /// in-process evaluation, and drops the round's queued work. Results
  /// still in flight arrive later as late duplicates.
  void fail_round(const std::string& reason) {
    FDML_WARN("foreman") << "round " << round_.round_id
                         << " unfinishable: " << reason;
    RoundFailedMessage failed;
    failed.round_id = round_.round_id;
    failed.reason = reason;
    send_sealed(kMasterRank, MessageTag::kRoundFailed, failed.pack());
    counters_.bump<&ForemanStats::rounds_failed>();
    obs::instant("foreman", "round_failed", "round",
                 static_cast<std::int64_t>(round_.round_id));
    end_round_span(static_cast<std::int64_t>(round_.completed.size()));
    round_active_ = false;
    work_queue_.clear();
    trace_queue_depth();
  }

  /// Forwards the master's shutdown to the monitor and every worker rank.
  void broadcast_shutdown() {
    for (int rank = kMonitorRank; rank < transport_.size(); ++rank) {
      transport_.send(rank, MessageTag::kShutdown, {});
    }
  }

  /// The incarnation's final stats: counter deltas since it started.
  ForemanStats finish() {
    if (round_span_open_) end_round_span(
        static_cast<std::int64_t>(round_.completed.size()));
    return counters_.since(start_);
  }

  void begin_round_span(std::uint64_t round_id, std::int64_t expected) {
    if (round_span_open_) end_round_span(0);  // keep B/E balanced
    round_span_open_ = true;
    obs::TraceEvent e;
    e.cat = "foreman";
    e.name = "round";
    e.ph = obs::Phase::kBegin;
    e.arg0_name = "round";
    e.arg0 = static_cast<std::int64_t>(round_id);
    e.arg1_name = "tasks";
    e.arg1 = expected;
    obs::emit(e);
  }

  void end_round_span(std::int64_t completed) {
    round_span_open_ = false;
    obs::TraceEvent e;
    e.cat = "foreman";
    e.name = "round";
    e.ph = obs::Phase::kEnd;
    e.arg0_name = "completed";
    e.arg0 = completed;
    obs::emit(e);
  }

  void trace_queue_depth() {
    obs::counter("queue_depth", static_cast<std::int64_t>(work_queue_.size()));
  }

  Transport& transport_;
  ForemanOptions options_;
  obs::MetricsRegistry& registry_;
  obs::CounterSet<ForemanStats, kForemanFields> counters_;
  /// Counter values at construction; the stats view subtracts these.
  ForemanStats start_;
  bool round_span_open_ = false;

  std::deque<TreeTask> work_queue_;
  std::deque<int> ready_;
  std::map<int, WorkerHealth> health_;
  std::map<int, HeldTasks> in_flight_;
  RoundState round_;
  bool round_active_ = false;
  bool fabric_closed_ = false;
  /// Next heartbeat ping due time (heartbeat_interval > 0 only).
  Clock::time_point next_ping_{};
  /// Telemetry plane (telemetry_interval > 0 only): periodic registry
  /// deltas to the master.
  std::optional<obs::TelemetryEmitter> telemetry_;
  Clock::time_point next_telemetry_{};
};

}  // namespace

ForemanStats foreman_main(Transport& transport, const ForemanOptions& options) {
  Foreman foreman(transport, options);
  return foreman.run();
}

}  // namespace fdml
