#include "parallel/master.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/integrity.hpp"
#include "obs/trace.hpp"
#include "parallel/protocol.hpp"
#include "util/log.hpp"

namespace fdml {

namespace {

using Clock = std::chrono::steady_clock;

/// Supervisor retry n waits kRetryBackoff * 2^(n-1), capped at
/// kRetryBackoffMax.
constexpr std::chrono::milliseconds kRetryBackoff{100};
constexpr std::chrono::milliseconds kRetryBackoffMax{5000};

/// attempt_round's signal to run_round's supervisor loop: the fabric could
/// not finish this attempt (watchdog trip or a foreman-reported failure).
struct RoundFailed {
  std::string reason;
};

}  // namespace

MasterStats ParallelMaster::stats() const { return counters_.since(start_); }

ParallelMaster::ParallelMaster(Transport& transport, int workers,
                               const PatternAlignment& data, SubstModel model,
                               RateModel rates, MasterOptions options)
    : transport_(transport),
      workers_(workers),
      options_(options),
      counters_(options.metrics != nullptr ? *options.metrics
                                           : obs::MetricsRegistry::process()),
      start_(counters_.read()),
      data_(data),
      model_(std::move(model)),
      rates_(std::move(rates)) {}

RoundOutcome ParallelMaster::degrade(std::uint64_t round_id,
                                     const std::vector<TreeTask>& tasks,
                                     const std::string& reason) {
  counters_.bump<&MasterStats::serial_fallbacks>();
  obs::instant("master", "serial_fallback", "round",
               static_cast<std::int64_t>(round_id));
  FDML_WARN("master") << "round " << round_id << " failed (" << reason
                      << "); evaluating " << tasks.size()
                      << " tasks in-process";
  if (!fallback_) {
    fallback_ = std::make_unique<SerialTaskRunner>(data_, model_, rates_);
  }
  return fallback_->run_round(tasks);
}

RoundOutcome ParallelMaster::run_round(const std::vector<TreeTask>& tasks) {
  if (tasks.empty()) throw std::invalid_argument("run_round: empty round");
  counters_.bump<&MasterStats::rounds>();

  std::uint64_t round_id = next_round_id_++;
  if (degraded_) {
    return degrade(round_id, tasks, "fabric previously wedged");
  }

  // Supervisor loop: each failed attempt waits out a backoff, then the
  // round is resent under a fresh id.
  for (int attempt = 0;; ++attempt) {
    try {
      RoundOutcome outcome = attempt_round(round_id, tasks);
      // A completed attempt is proof the fabric is alive again: a watchdog
      // trip on an earlier attempt (a transient partition, a foreman riding
      // out an outage) must not wedge every future round into the serial
      // fallback.
      if (degraded_ && attempt > 0) {
        counters_.bump<&MasterStats::fabric_revivals>();
        FDML_WARN("master") << "round " << round_id
                            << " recovered on retry; fabric restored";
      }
      degraded_ = false;
      return outcome;
    } catch (const RoundFailed& failure) {
      if (attempt < options_.max_round_retries) {
        counters_.bump<&MasterStats::round_retries>();
        obs::instant("master", "round_retry", "round",
                     static_cast<std::int64_t>(round_id));
        const int doublings = std::min(attempt, 16);
        const auto backoff = std::min<std::chrono::milliseconds>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                kRetryBackoff * (1LL << doublings)),
            kRetryBackoffMax);
        FDML_WARN("master") << "round " << round_id << " failed ("
                            << failure.reason << "); retry "
                            << (attempt + 1) << "/"
                            << options_.max_round_retries << " in "
                            << backoff.count() << " ms";
        std::this_thread::sleep_for(backoff);
        round_id = next_round_id_++;  // stale traffic from the failed
                                      // attempt must not satisfy the retry
        continue;
      }
      return degrade(round_id, tasks, failure.reason);
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
  round.watchdog_ms = static_cast<std::uint64_t>(options_.watchdog_timeout.count());
  // Stamp the round id the foreman will echo back.
  for (TreeTask& task : round.tasks) task.round_id = round.round_id;

  obs::Span span("master", "round", "round",
                 static_cast<std::int64_t>(round_id), "tasks",
                 static_cast<std::int64_t>(tasks.size()));
  auto payload = round.pack();
  seal_payload(payload);
  transport_.send(kForemanRank, MessageTag::kRound, std::move(payload));

  // The watchdog counts from the round's last known progress: its send,
  // then the moment each of the foreman's beats dates, never earlier.
  auto last_progress = Clock::now();
  const auto trip = [&] {
    counters_.bump<&MasterStats::watchdog_trips>();
    obs::instant("master", "watchdog_trip", "round",
                 static_cast<std::int64_t>(round.round_id));
    degraded_ = true;
    FDML_WARN("master") << "watchdog: no progress on round " << round.round_id
                        << " for " << options_.watchdog_timeout.count() << " ms";
    throw RoundFailed{"watchdog: no round progress"};
  };
  for (;;) {
    const auto now = Clock::now();
    if (now - last_progress >= options_.watchdog_timeout) trip();
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
        const std::optional<ProgressMessage> progress =
            open_sealed(message->payload, ProgressMessage::unpack);
        if (!progress.has_value()) {
          counters_.bump<&MasterStats::corrupt_messages>();
        } else if (progress->round_id == round.round_id) {
          counters_.bump<&MasterStats::progress_messages>();
          // Clamped to the budget, so no report can overflow the clock.
          const std::chrono::milliseconds idle(
              std::min<std::uint64_t>(progress->idle_ms, round.watchdog_ms));
          if (idle >= options_.watchdog_timeout) trip();
          last_progress = std::max(last_progress, Clock::now() - idle);
        } else {
          counters_.bump<&MasterStats::stale_messages>();
        }
        break;
      }
      case MessageTag::kRoundDone: {
        std::optional<RoundDoneMessage> done =
            open_sealed(message->payload, RoundDoneMessage::unpack);
        if (!done.has_value()) {
          counters_.bump<&MasterStats::corrupt_messages>();
          break;
        }
        if (done->round_id != round.round_id) {
          counters_.bump<&MasterStats::stale_messages>();
          break;
        }
        RoundOutcome outcome;
        outcome.best = std::move(done->best);
        outcome.stats = std::move(done->stats);
        return outcome;
      }
      case MessageTag::kRoundFailed: {
        const std::optional<RoundFailedMessage> failed =
            open_sealed(message->payload, RoundFailedMessage::unpack);
        if (!failed.has_value()) {
          counters_.bump<&MasterStats::corrupt_messages>();
          break;
        }
        if (failed->round_id != round.round_id) {
          counters_.bump<&MasterStats::stale_messages>();
          break;
        }
        counters_.bump<&MasterStats::rounds_failed>();
        throw RoundFailed{failed->reason};
      }
      case MessageTag::kTelemetry:
        // Telemetry rides the same fabric as round traffic; frames landing
        // mid-round feed the aggregator, they never reset the watchdog
        // (liveness of a worker's emitter is not round progress).
        handle_telemetry(message->payload);
        break;
      default:
        // Previously these were discarded without a trace, which hid real
        // protocol bugs; now they are at least visible and counted.
        counters_.bump<&MasterStats::unexpected_tags>();
        FDML_WARN("master") << "ignoring unexpected tag "
                            << static_cast<int>(message->tag) << " from rank "
                            << message->source << " mid-round";
    }
  }
}

void ParallelMaster::handle_telemetry(const std::vector<std::uint8_t>& payload) {
  const std::optional<obs::TelemetryFrame> frame =
      open_sealed(payload, obs::TelemetryFrame::unpack);
  if (!frame.has_value()) {
    counters_.bump<&MasterStats::corrupt_messages>();
    return;
  }
  if (telemetry_ != nullptr) telemetry_->apply(*frame);
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
        handle_telemetry(message->payload);
        break;
      case MessageTag::kProgress:
      case MessageTag::kRoundDone:
      case MessageTag::kRoundFailed:
        // Round-scoped traffic with no round in flight: a late reply from
        // an attempt the supervisor already abandoned.
        counters_.bump<&MasterStats::stale_messages>();
        break;
      default:
        counters_.bump<&MasterStats::unexpected_tags>();
        FDML_WARN("master") << "ignoring unexpected tag "
                            << static_cast<int>(message->tag) << " from rank "
                            << message->source << " between rounds";
    }
  }
  return drained;
}

}  // namespace fdml
