#include "parallel/worker.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "comm/integrity.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol.hpp"
#include "search/task_evaluator.hpp"
#include "util/log.hpp"

namespace fdml {

namespace {

/// Folds the engine's cumulative KernelCounters into `registry` as
/// `kernel.*` counter increments since `last` (which is advanced). The
/// registry accumulates whole-run totals; the TelemetryEmitter diffs those
/// into per-frame deltas.
void fold_kernel_counters(obs::MetricsRegistry& registry,
                          const KernelCounters& now, KernelCounters& last) {
  const auto bump = [&](const char* name, std::uint64_t cur,
                        std::uint64_t prev) {
    if (cur > prev) registry.counter(name).add(cur - prev);
  };
  bump("kernel.clv_computations", now.clv_computations, last.clv_computations);
  bump("kernel.clv_rescales", now.clv_rescales, last.clv_rescales);
  bump("kernel.edge_captures", now.edge_captures, last.edge_captures);
  bump("kernel.edge_evaluations", now.edge_evaluations,
       last.edge_evaluations);
  bump("kernel.transition_hits", now.transition_hits, last.transition_hits);
  bump("kernel.transition_misses", now.transition_misses,
       last.transition_misses);
  bump("kernel.transition_evictions", now.transition_evictions,
       last.transition_evictions);
  bump("kernel.ns", now.kernel_ns, last.kernel_ns);
  last = now;
}

/// Malformed-payload guard: verify the integrity footer, then decode behind
/// a catch. A task that was corrupted in transit must not kill the worker —
/// the foreman holds a pristine copy and will resend on our NACK.
std::optional<TreeTask> decode_task(std::vector<std::uint8_t> payload) {
  if (!open_payload(payload)) return std::nullopt;
  try {
    Unpacker unpacker(payload);
    TreeTask task = TreeTask::unpack(unpacker);
    if (!unpacker.exhausted()) return std::nullopt;
    return task;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

WorkerStats worker_main(Transport& transport, const PatternAlignment& data,
                        SubstModel model, RateModel rates,
                        WorkerRunOptions options) {
  obs::set_thread_name("worker-" + std::to_string(transport.rank()));
  TaskEvaluator evaluator(data, std::move(model), std::move(rates));
  WorkerStats stats;

  // The telemetry plane, the worker's only accounting channel: a registry
  // local to this worker incarnation (a restarted worker process naturally
  // starts from zero; the emitter's fresh incarnation id tells the
  // aggregator so) diffed into kTelemetry frames for the master — one on
  // shutdown always, plus periodic ones when the interval is set. Interval
  // zero keeps the blocking-recv loop: no timers, no extra wakeups.
  const bool telemetry_on = options.telemetry_interval.count() > 0;
  obs::MetricsRegistry registry;
  obs::TelemetryEmitter emitter(registry, transport.rank());
  KernelCounters last_counters;
  auto next_emit = std::chrono::steady_clock::now() + options.telemetry_interval;
  const auto emit_telemetry = [&] {
    fold_kernel_counters(registry, evaluator.engine().counters(),
                         last_counters);
    auto payload = emitter.collect().pack();
    seal_payload(payload);
    transport.send(kMasterRank, MessageTag::kTelemetry, std::move(payload));
    ++stats.telemetry_frames;
  };

  transport.send(kForemanRank, MessageTag::kHello, {});
  while (true) {
    std::optional<Message> message;
    if (!telemetry_on) {
      message = transport.recv();
    } else {
      // Bounded waits so the emitter fires on schedule even when the
      // foreman has nothing for us (an idle frame is a liveness beacon).
      while (true) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= next_emit) {
          emit_telemetry();
          next_emit = now + options.telemetry_interval;
        }
        auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
            next_emit - std::chrono::steady_clock::now());
        if (wait.count() < 1) wait = std::chrono::milliseconds(1);
        message = transport.recv_for(wait);
        if (message.has_value() || transport.closed()) break;
      }
    }
    if (!message.has_value()) break;
    if (message->tag == MessageTag::kShutdown) {
      emit_telemetry();  // the final totals
      break;
    }
    if (message->tag == MessageTag::kPing) {
      // The foreman's heartbeat: it has not heard from us (a restarted
      // process, a severed connection); a fresh hello re-registers us.
      transport.send(kForemanRank, MessageTag::kHello, {});
      continue;
    }
    if (message->tag != MessageTag::kTask) {
      ++stats.unexpected_tags;
      FDML_WARN("worker") << "rank " << transport.rank() << " ignoring tag "
                          << static_cast<int>(message->tag);
      continue;
    }

    // One task per message, as the self-scheduling foreman sends them.
    const std::optional<TreeTask> task =
        decode_task(std::move(message->payload));
    if (!task.has_value()) {
      ++stats.corrupt_tasks;
      registry.counter("worker.corrupt_tasks").add(1);
      obs::instant("worker", "corrupt_task");
      FDML_WARN("worker") << "rank " << transport.rank()
                          << " received a malformed task payload; nacking";
      transport.send(kForemanRank, MessageTag::kNack, {});
      continue;
    }

    TaskResult result;
    try {
      obs::Span span("worker", "task", "task",
                     static_cast<std::int64_t>(task->task_id), "round",
                     static_cast<std::int64_t>(task->round_id));
      obs::flow(obs::Phase::kFlowStep,
                obs::task_flow_id(task->round_id, task->task_id));
      const KernelCounters before = evaluator.engine().counters();
      result = evaluator.evaluate(*task);
      const KernelCounters after = evaluator.engine().counters();
      span.set_end_args(
          "clv",
          static_cast<std::int64_t>(after.clv_computations -
                                    before.clv_computations),
          "edge_evals",
          static_cast<std::int64_t>(after.edge_evaluations -
                                    before.edge_evaluations));
    } catch (const std::exception& error) {
      // The task decoded cleanly but the evaluator refuses it (a focus
      // taxon not in the tree, an unknown taxon name, ...): every worker
      // would, so tell the foreman why instead of dying or asking for a
      // resend.
      ++stats.rejected_tasks;
      registry.counter("worker.rejected_tasks").add(1);
      obs::instant("worker", "rejected_task");
      FDML_WARN("worker") << "rank " << transport.rank() << " rejected task "
                          << task->task_id << ": " << error.what();
      TaskRejectedMessage rejected;
      rejected.round_id = task->round_id;
      rejected.task_id = task->task_id;
      rejected.reason = error.what();
      auto payload = rejected.pack();
      seal_payload(payload);
      transport.send(kForemanRank, MessageTag::kNack, std::move(payload));
      continue;
    }
    result.worker = transport.rank();
    ++stats.tasks_evaluated;
    registry.counter("worker.tasks_evaluated").add(1);
    stats.cpu_seconds += result.cpu_seconds;
    Packer packer;
    result.pack(packer);
    auto payload = packer.take();
    seal_payload(payload);
    transport.send(kForemanRank, MessageTag::kResult, std::move(payload));
  }
  return stats;
}

}  // namespace fdml
