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
  obs::Histogram& task_batch =
      registry.histogram("worker.task_batch", {1, 2, 4, 8, 16, 32});
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
  std::optional<Message> deferred;
  while (true) {
    std::optional<Message> message;
    if (deferred.has_value()) {
      message = std::move(deferred);
      deferred.reset();
    } else if (!telemetry_on) {
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
      // A revived foreman lost its worker list with the old incarnation;
      // a fresh hello re-registers us.
      transport.send(kForemanRank, MessageTag::kHello, {});
      continue;
    }
    if (message->tag != MessageTag::kTask) {
      ++stats.unexpected_tags;
      FDML_WARN("worker") << "rank " << transport.rank() << " ignoring tag "
                          << static_cast<int>(message->tag);
      continue;
    }

    // Batch assembly: drain any task messages already queued behind this
    // one (an eagerly-dispatching foreman, or a backlog after a stall) so
    // candidate insertion tasks are scored through the batched multi-edge
    // path. An empty queue degrades to a batch of one — the scheduling
    // behaviour of the one-task-at-a-time loop. A non-task message pauses
    // draining and is handled after the batch completes.
    std::vector<TreeTask> batch;
    auto enqueue = [&](std::optional<Message> m) {
      std::optional<TreeTask> task = decode_task(std::move(m->payload));
      if (!task.has_value()) {
        ++stats.corrupt_tasks;
        registry.counter("worker.corrupt_tasks").add(1);
        obs::instant("worker", "corrupt_task");
        FDML_WARN("worker") << "rank " << transport.rank()
                            << " received a malformed task payload; nacking";
        transport.send(kForemanRank, MessageTag::kNack, {});
        return;
      }
      batch.push_back(std::move(*task));
    };
    enqueue(std::move(message));
    while (batch.size() < TaskEvaluator::kChunk) {
      std::optional<Message> next =
          transport.recv_for(std::chrono::milliseconds(0));
      if (!next.has_value()) break;
      if (next->tag != MessageTag::kTask) {
        deferred = std::move(next);
        break;
      }
      enqueue(std::move(next));
    }
    if (batch.empty()) continue;  // every drained payload was corrupt
    task_batch.observe(static_cast<double>(batch.size()));

    std::vector<TaskResult> results;
    {
      // One span covers the whole batch (the report layer derives worker
      // busy time and task counts from worker/task spans; a batch of one —
      // the self-scheduling common case — traces exactly as before).
      obs::Span span("worker", "task", "task",
                     static_cast<std::int64_t>(batch.front().task_id), "round",
                     static_cast<std::int64_t>(batch.front().round_id));
      for (const TreeTask& task : batch) {
        obs::flow(obs::Phase::kFlowStep,
                  obs::task_flow_id(task.round_id, task.task_id));
      }
      const KernelCounters before = evaluator.engine().counters();
      results = evaluator.evaluate_batch(batch);
      const KernelCounters after = evaluator.engine().counters();
      span.set_end_args(
          "clv",
          static_cast<std::int64_t>(after.clv_computations -
                                    before.clv_computations),
          "edge_evals",
          static_cast<std::int64_t>(after.edge_evaluations -
                                    before.edge_evaluations));
    }
    for (TaskResult& result : results) {
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
  }
  return stats;
}

}  // namespace fdml
