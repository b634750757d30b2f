#include "parallel/master.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "comm/integrity.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol.hpp"
#include "util/log.hpp"

namespace fdml {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

ParallelMaster::Counters::Counters(obs::MetricsRegistry& r)
    : rounds(r.counter("master.rounds")),
      progress_messages(r.counter("master.progress_messages")),
      unexpected_tags(r.counter("master.unexpected_tags")),
      stale_messages(r.counter("master.stale_messages")),
      corrupt_messages(r.counter("master.corrupt_messages")),
      watchdog_trips(r.counter("master.watchdog_trips")),
      rounds_failed(r.counter("master.rounds_failed")),
      serial_fallbacks(r.counter("master.serial_fallbacks")),
      round_retries(r.counter("master.round_retries")),
      fabric_revivals(r.counter("master.fabric_revivals")) {}

MasterStats ParallelMaster::Counters::read() const {
  MasterStats s;
  s.rounds = rounds.value();
  s.progress_messages = progress_messages.value();
  s.unexpected_tags = unexpected_tags.value();
  s.stale_messages = stale_messages.value();
  s.corrupt_messages = corrupt_messages.value();
  s.watchdog_trips = watchdog_trips.value();
  s.rounds_failed = rounds_failed.value();
  s.serial_fallbacks = serial_fallbacks.value();
  s.round_retries = round_retries.value();
  s.fabric_revivals = fabric_revivals.value();
  return s;
}

MasterStats ParallelMaster::stats() const {
  const MasterStats end = counters_.read();
  MasterStats d;
  d.rounds = end.rounds - start_.rounds;
  d.progress_messages = end.progress_messages - start_.progress_messages;
  d.unexpected_tags = end.unexpected_tags - start_.unexpected_tags;
  d.stale_messages = end.stale_messages - start_.stale_messages;
  d.corrupt_messages = end.corrupt_messages - start_.corrupt_messages;
  d.watchdog_trips = end.watchdog_trips - start_.watchdog_trips;
  d.rounds_failed = end.rounds_failed - start_.rounds_failed;
  d.serial_fallbacks = end.serial_fallbacks - start_.serial_fallbacks;
  d.round_retries = end.round_retries - start_.round_retries;
  d.fabric_revivals = end.fabric_revivals - start_.fabric_revivals;
  return d;
}

ParallelMaster::ParallelMaster(Transport& transport, int workers,
                               MasterOptions options)
    : transport_(transport),
      workers_(workers),
      options_(options),
      counters_(options.metrics != nullptr ? *options.metrics
                                           : obs::MetricsRegistry::process()),
      start_(counters_.read()) {}

RoundOutcome ParallelMaster::degrade(std::uint64_t round_id,
                                     const std::vector<TreeTask>& tasks,
                                     const std::string& reason) {
  if (!options_.serial_fallback || !fallback_) {
    throw RoundFailedError(round_id, reason);
  }
  counters_.serial_fallbacks.add();
  obs::instant("master", "serial_fallback", "round",
               static_cast<std::int64_t>(round_id));
  FDML_WARN("master") << "round " << round_id << " failed (" << reason
                      << "); evaluating " << tasks.size()
                      << " tasks in-process";
  return fallback_(tasks);
}

RoundOutcome ParallelMaster::run_round(const std::vector<TreeTask>& tasks) {
  if (tasks.empty()) throw std::invalid_argument("run_round: empty round");
  counters_.rounds.add();

  std::uint64_t round_id = next_round_id_++;
  if (degraded_) {
    return degrade(round_id, tasks, "fabric previously wedged");
  }

  // Supervisor loop: each failed attempt gets the reviver a chance to
  // restart a dead foreman, then the round is resent under a fresh id (the
  // foreman's journal makes re-dispatch of already-finished work free).
  for (int attempt = 0;; ++attempt) {
    try {
      RoundOutcome outcome = attempt_round(round_id, tasks);
      // A completed attempt is proof the fabric is alive again: a watchdog
      // trip on an earlier attempt (a transient partition, a foreman riding
      // out an outage) must not wedge every future round into the serial
      // fallback.
      if (degraded_ && attempt > 0) {
        counters_.fabric_revivals.add();
        FDML_WARN("master") << "round " << round_id
                            << " recovered on retry; fabric restored";
      }
      degraded_ = false;
      return outcome;
    } catch (const RoundFailedError& failure) {
      if (attempt < options_.max_round_retries) {
        counters_.round_retries.add();
        obs::instant("master", "round_retry", "round",
                     static_cast<std::int64_t>(round_id));
        const int doublings = std::min(attempt, 16);
        const auto backoff = std::min<std::chrono::milliseconds>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                options_.retry_backoff * (1LL << doublings)),
            options_.retry_backoff_max);
        FDML_WARN("master") << "round " << round_id << " failed ("
                            << failure.reason() << "); retry "
                            << (attempt + 1) << "/"
                            << options_.max_round_retries << " in "
                            << backoff.count() << " ms";
        std::this_thread::sleep_for(backoff);
        if (reviver_ && reviver_()) {
          counters_.fabric_revivals.add();
          // The wedged incarnation is gone; trust its replacement.
          degraded_ = false;
        }
        round_id = next_round_id_++;  // stale traffic from the failed
                                      // attempt must not satisfy the retry
        continue;
      }
      if (options_.max_round_retries > 0 &&
          (!options_.serial_fallback || !fallback_)) {
        throw RunFailedError(round_id, failure.reason(), attempt + 1);
      }
      return degrade(round_id, tasks, failure.reason());
    }
  }
}

RoundOutcome ParallelMaster::attempt_round(std::uint64_t round_id,
                                           const std::vector<TreeTask>& tasks) {
  // Owning the receive lock for the whole round keeps pump() (the serve
  // loop's idle drain) off the transport while round replies are in flight.
  std::lock_guard<std::mutex> recv_lock(recv_mutex_);
  RoundMessage round;
  round.round_id = round_id;
  round.tasks = tasks;
  // Stamp the round id the foreman will echo back.
  for (TreeTask& task : round.tasks) task.round_id = round.round_id;

  obs::Span span("master", "round", "round",
                 static_cast<std::int64_t>(round_id), "tasks",
                 static_cast<std::int64_t>(tasks.size()));
  auto payload = round.pack();
  seal_payload(payload);
  transport_.send(kForemanRank, MessageTag::kRound, std::move(payload));

  auto last_progress = Clock::now();
  for (;;) {
    const auto now = Clock::now();
    if (now - last_progress >= options_.watchdog_timeout) {
      counters_.watchdog_trips.add();
      obs::instant("master", "watchdog_trip", "round",
                   static_cast<std::int64_t>(round.round_id));
      degraded_ = true;
      FDML_WARN("master") << "watchdog: no progress on round "
                          << round.round_id << " for "
                          << options_.watchdog_timeout.count() << " ms";
      throw RoundFailedError(round.round_id, "watchdog: no round progress");
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        options_.watchdog_timeout - (now - last_progress));
    auto message = transport_.recv_for(remaining + std::chrono::milliseconds(1));
    if (!message.has_value()) {
      if (transport_.closed()) {
        throw std::runtime_error("master: fabric shut down mid-round");
      }
      continue;  // watchdog re-checked at the top
    }

    switch (message->tag) {
      case MessageTag::kProgress: {
        if (!open_payload(message->payload)) {
          counters_.corrupt_messages.add();
          break;
        }
        try {
          const ProgressMessage progress =
              ProgressMessage::unpack(message->payload);
          if (progress.round_id == round.round_id) {
            counters_.progress_messages.add();
            last_progress = Clock::now();
          } else {
            counters_.stale_messages.add();
          }
        } catch (const std::exception&) {
          counters_.corrupt_messages.add();
        }
        break;
      }
      case MessageTag::kRoundDone: {
        if (!open_payload(message->payload)) {
          counters_.corrupt_messages.add();
          break;
        }
        RoundDoneMessage done;
        try {
          done = RoundDoneMessage::unpack(message->payload);
        } catch (const std::exception&) {
          counters_.corrupt_messages.add();
          break;
        }
        if (done.round_id != round.round_id) {
          counters_.stale_messages.add();
          break;
        }
        RoundOutcome outcome;
        outcome.best = std::move(done.best);
        outcome.stats = std::move(done.stats);
        return outcome;
      }
      case MessageTag::kRoundFailed: {
        if (!open_payload(message->payload)) {
          counters_.corrupt_messages.add();
          break;
        }
        RoundFailedMessage failed;
        try {
          failed = RoundFailedMessage::unpack(message->payload);
        } catch (const std::exception&) {
          counters_.corrupt_messages.add();
          break;
        }
        if (failed.round_id != round.round_id) {
          counters_.stale_messages.add();
          break;
        }
        counters_.rounds_failed.add();
        throw RoundFailedError(round.round_id, failed.reason);
      }
      case MessageTag::kTelemetry:
        // Telemetry rides the same fabric as round traffic; frames landing
        // mid-round feed the aggregator, they never reset the watchdog
        // (liveness of a worker's emitter is not round progress).
        handle_telemetry(message->source, std::move(message->payload));
        break;
      default:
        // Previously these were discarded without a trace, which hid real
        // protocol bugs; now they are at least visible and counted.
        counters_.unexpected_tags.add();
        FDML_WARN("master") << "ignoring unexpected tag "
                            << static_cast<int>(message->tag) << " from rank "
                            << message->source << " mid-round";
    }
  }
}

void ParallelMaster::handle_telemetry(int source,
                                      std::vector<std::uint8_t> payload) {
  if (!open_payload(payload)) {
    counters_.corrupt_messages.add();
    return;
  }
  if (telemetry_ == nullptr) return;
  // The integrity footer is already verified, so a frame that fails to
  // decode only comes from a version-skewed peer: drop it.
  try {
    telemetry_->apply(obs::TelemetryFrame::unpack(payload));
  } catch (const std::exception& e) {
    FDML_WARN("master") << "undecodable telemetry frame from rank " << source
                        << ": " << e.what();
  }
}

std::size_t ParallelMaster::pump() {
  std::unique_lock<std::mutex> recv_lock(recv_mutex_, std::try_to_lock);
  if (!recv_lock.owns_lock()) return 0;  // a round is consuming the fabric
  std::size_t drained = 0;
  for (;;) {
    auto message = transport_.recv_for(std::chrono::milliseconds(0));
    if (!message.has_value()) break;
    ++drained;
    switch (message->tag) {
      case MessageTag::kTelemetry:
        handle_telemetry(message->source, std::move(message->payload));
        break;
      case MessageTag::kProgress:
      case MessageTag::kRoundDone:
      case MessageTag::kRoundFailed:
        // Round-scoped traffic with no round in flight: a late reply from
        // an attempt the supervisor already abandoned.
        counters_.stale_messages.add();
        break;
      default:
        counters_.unexpected_tags.add();
        FDML_WARN("master") << "ignoring unexpected tag "
                            << static_cast<int>(message->tag) << " from rank "
                            << message->source << " between rounds";
    }
  }
  return drained;
}

}  // namespace fdml
