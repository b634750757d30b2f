// Tests for the message fabric, the protocol codecs, and the full
// master/foreman/worker/monitor runtime — including the paper's timeout
// fault tolerance (requeue, delinquency, reinstatement), the fabric's
// traffic contract and per-worker totals reaching rank 0 by telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "comm/chaos.hpp"
#include "comm/integrity.hpp"
#include "comm/transport.hpp"
#include "model/simulate.hpp"
#include "obs/metrics.hpp"
#include "parallel/cluster.hpp"
#include "parallel/foreman.hpp"
#include "parallel/protocol.hpp"
#include "search/search.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "tree/splits.hpp"

namespace fdml {
namespace {

TEST(Fabric, PointToPointDelivery) {
  ThreadFabric fabric(4);
  auto a = fabric.endpoint(0);
  auto b = fabric.endpoint(3);
  a->send(3, MessageTag::kTask, {1, 2, 3});
  const auto message = b->recv();
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->source, 0);
  EXPECT_EQ(message->tag, MessageTag::kTask);
  EXPECT_EQ(message->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(fabric.messages_sent(), 1u);
  EXPECT_EQ(fabric.bytes_sent(), 3u);
}

TEST(Fabric, RecvForTimesOutAndCloseUnblocks) {
  ThreadFabric fabric(2);
  auto endpoint = fabric.endpoint(1);
  EXPECT_FALSE(endpoint->recv_for(std::chrono::milliseconds(10)).has_value());
  EXPECT_FALSE(endpoint->closed());

  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.close();
  });
  const auto message = endpoint->recv();
  EXPECT_FALSE(message.has_value());
  EXPECT_TRUE(endpoint->closed());
  closer.join();
}

TEST(Fabric, CrossThreadPingPong) {
  ThreadFabric fabric(2);
  std::thread echo([&] {
    auto endpoint = fabric.endpoint(1);
    while (auto message = endpoint->recv()) {
      if (message->tag == MessageTag::kShutdown) break;
      endpoint->send(0, MessageTag::kResult, std::move(message->payload));
    }
  });
  auto endpoint = fabric.endpoint(0);
  for (std::uint8_t i = 0; i < 50; ++i) {
    endpoint->send(1, MessageTag::kTask, {i});
    const auto reply = endpoint->recv();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->payload[0], i);
  }
  endpoint->send(1, MessageTag::kShutdown, {});
  echo.join();
}

TEST(Fabric, RejectsBadRanks) {
  ThreadFabric fabric(3);
  EXPECT_THROW(fabric.endpoint(5), std::out_of_range);
  auto endpoint = fabric.endpoint(0);
  EXPECT_THROW(endpoint->send(7, MessageTag::kTask, {}), std::out_of_range);
  EXPECT_THROW(ThreadFabric(1), std::invalid_argument);
}

TEST(Protocol, RoundMessageRoundTrip) {
  RoundMessage round;
  round.round_id = 12;
  round.watchdog_ms = 4000;
  for (int i = 0; i < 3; ++i) {
    TreeTask task;
    task.task_id = static_cast<std::uint64_t>(100 + i);
    task.newick = "(a:1,b:1,c:1);";
    task.focus_taxon = i;
    round.tasks.push_back(task);
  }
  const RoundMessage back =
      unpack_all(Unpacker(round.pack()), RoundMessage::unpack);
  EXPECT_EQ(back.round_id, 12u);
  EXPECT_EQ(back.watchdog_ms, 4000u);
  ASSERT_EQ(back.tasks.size(), 3u);
  EXPECT_EQ(back.tasks[2].task_id, 102u);
  EXPECT_EQ(back.tasks[2].focus_taxon, 2);
}

TEST(Protocol, RoundDoneRoundTrip) {
  RoundDoneMessage done;
  done.round_id = 5;
  done.best.task_id = 9;
  done.best.log_likelihood = -321.75;
  done.best.newick = "(x:1,y:1,z:1);";
  done.stats.push_back({9, 0.125, 512, 4});
  const RoundDoneMessage back =
      unpack_all(Unpacker(done.pack()), RoundDoneMessage::unpack);
  EXPECT_DOUBLE_EQ(back.best.log_likelihood, -321.75);
  ASSERT_EQ(back.stats.size(), 1u);
  EXPECT_EQ(back.stats[0].bytes, 512u);
  EXPECT_EQ(back.stats[0].worker, 4);
}

// --- scripted foreman (transport-level) ---

/// Receives the next task, failing (and returning an empty task) if none
/// arrives within `timeout`.
TreeTask recv_task(Transport& endpoint, std::chrono::milliseconds timeout =
                                            std::chrono::milliseconds(5000)) {
  auto message = endpoint.recv_for(timeout);
  if (!message.has_value()) {
    ADD_FAILURE() << "no task arrived within " << timeout.count() << " ms";
    return TreeTask{};
  }
  EXPECT_EQ(message->tag, MessageTag::kTask);
  const std::optional<TreeTask> task =
      open_sealed(message->payload, TreeTask::unpack);
  EXPECT_TRUE(task.has_value());
  return task.value_or(TreeTask{});
}

/// True when a message is already waiting at `endpoint`; never blocks.
bool has_waiting(Transport& endpoint) {
  return endpoint.recv_for(std::chrono::milliseconds(0)).has_value();
}

void send_result(Transport& endpoint, std::uint64_t task_id,
                 std::uint64_t round_id) {
  TaskResult result;
  result.task_id = task_id;
  result.round_id = round_id;
  result.log_likelihood = -100.0 - static_cast<double>(task_id);
  result.newick = "(a:1,b:1,c:1);";
  Packer packer;
  result.pack(packer);
  auto payload = packer.take();
  seal_payload(payload);
  endpoint.send(kForemanRank, MessageTag::kResult, std::move(payload));
}

/// Sends a round as the master would; `watchdog` is the budget the round
/// carries (zero: none, so the foreman never beats).
void send_round(Transport& endpoint, std::uint64_t round_id,
                std::initializer_list<std::uint64_t> task_ids,
                std::chrono::milliseconds watchdog = {}) {
  RoundMessage round;
  round.round_id = round_id;
  round.watchdog_ms = static_cast<std::uint64_t>(watchdog.count());
  for (std::uint64_t id : task_ids) {
    TreeTask task;
    task.task_id = id;
    task.round_id = round_id;
    task.newick = "(a:1,b:1,c:1);";
    round.tasks.push_back(task);
  }
  auto payload = round.pack();
  seal_payload(payload);
  endpoint.send(kForemanRank, MessageTag::kRound, std::move(payload));
}

/// Waits for the round's kRoundDone, skipping any kProgress beats.
std::optional<RoundDoneMessage> recv_round_done(
    Transport& endpoint,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(2000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return std::nullopt;
    auto message = endpoint.recv_for(remaining);
    if (!message.has_value()) return std::nullopt;
    if (message->tag != MessageTag::kRoundDone) continue;
    return open_sealed(message->payload, RoundDoneMessage::unpack);
  }
}

/// The foreman's endpoint, wrapped so a script can tell when the foreman is
/// idle: it counts the messages the foreman has taken and knows whether the
/// foreman is blocked waiting for the next. Once the foreman has taken n
/// messages and is blocked again, it has sent everything that those
/// messages, and any deadline that passed before, make it send; a worker's
/// mailbox then holds exactly what it was dispatched.
class IdleProbe : public Transport {
 public:
  explicit IdleProbe(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }
  void send(int dest, MessageTag tag,
            std::vector<std::uint8_t> payload) override {
    inner_->send(dest, tag, std::move(payload));
  }
  std::optional<Message> recv() override {
    block();
    return unblock(inner_->recv());
  }
  std::optional<Message> recv_for(std::chrono::milliseconds timeout) override {
    block();
    return unblock(inner_->recv_for(timeout));
  }
  bool closed() const override { return inner_->closed(); }

  /// Waits (at most 10 s) until the foreman has taken `messages` messages
  /// and is blocked waiting for the next one.
  bool await_idle(std::uint64_t messages) {
    std::unique_lock lock(mutex_);
    return idle_.wait_for(lock, std::chrono::seconds(10), [&] {
      return blocked_ && taken_ >= messages;
    });
  }

 private:
  void block() {
    {
      std::lock_guard lock(mutex_);
      blocked_ = true;
    }
    idle_.notify_all();
  }

  std::optional<Message> unblock(std::optional<Message> message) {
    std::lock_guard lock(mutex_);
    blocked_ = false;
    if (message.has_value()) ++taken_;
    return message;
  }

  std::unique_ptr<Transport> inner_;
  std::mutex mutex_;
  std::condition_variable idle_;
  bool blocked_ = false;
  std::uint64_t taken_ = 0;
};

/// A live foreman on a thread fabric (master, foreman, monitor, then
/// workers), its endpoint wrapped in an IdleProbe; the test scripts the
/// master and the workers.
struct ScriptedForeman {
  ScriptedForeman(int workers, std::chrono::milliseconds timeout)
      : fabric(kFirstWorkerRank + workers),
        probe(fabric.endpoint(kForemanRank)),
        master(fabric.endpoint(kMasterRank)) {
    options.worker_timeout = timeout;
    options.metrics = &metrics;
    thread = std::thread([this] { stats = foreman_main(probe, options); });
  }

  ScriptedForeman(const ScriptedForeman&) = delete;
  ScriptedForeman& operator=(const ScriptedForeman&) = delete;

  ~ScriptedForeman() {
    if (thread.joinable()) shutdown();
  }

  std::unique_ptr<Transport> worker(int index) {
    return fabric.endpoint(kFirstWorkerRank + index);
  }

  /// Polls a foreman counter until it reaches `at_least` (at most 5 s).
  bool await_counter(const char* name, std::uint64_t at_least) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (metrics.snapshot().counter(name) < at_least) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  const ForemanStats& shutdown() {
    master->send(kForemanRank, MessageTag::kShutdown, {});
    thread.join();
    return stats;
  }

  ThreadFabric fabric;
  IdleProbe probe;
  std::unique_ptr<Transport> master;
  obs::MetricsRegistry metrics;  // staged on counters, not sleeps
  ForemanOptions options;
  ForemanStats stats;
  std::thread thread;
};

// Regression: a delinquent worker's stale result (for a task the foreman had
// already requeued and accepted) used to push the worker onto the ready
// queue a second time while it still held a task. The next round then
// dispatched past the worker's limit, overwriting a dispatch record and
// silently losing a task. The test scripts a single worker against a live
// foreman and asserts that the worker never holds more than two tasks: the
// running one and one queued behind it.
TEST(Foreman, StaleResultDoesNotDoubleBookWorker) {
  ScriptedForeman f(1, std::chrono::milliseconds(400));
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});  // message 1
  send_round(*f.master, 1, {1, 2});                    // 2

  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);  // queued behind task 1
  // Hold both past the timeout: the foreman requeues them and marks the
  // worker delinquent.
  EXPECT_TRUE(f.await_counter("foreman.delinquencies", 1));
  // The late reply moves the worker to probation and completes task 1 (the
  // requeued copy is dropped from the queue); task 2 goes out as the probe.
  send_result(*worker, 1, 1);  // 3
  EXPECT_EQ(recv_task(*worker).task_id, 2u);
  // A stale duplicate of task 1 arrives while task 2 is in flight — the
  // mismatch that used to double-book the worker.
  send_result(*worker, 1, 1);  // 4
  send_result(*worker, 2, 1);  // 5

  const auto done1 = recv_round_done(*f.master);
  ASSERT_TRUE(done1.has_value());
  EXPECT_EQ(done1->stats.size(), 2u);

  send_round(*f.master, 2, {10, 11, 12});  // 6
  ASSERT_TRUE(f.probe.await_idle(6));
  EXPECT_EQ(recv_task(*worker).task_id, 10u);
  EXPECT_EQ(recv_task(*worker).task_id, 11u);
  EXPECT_FALSE(has_waiting(*worker))
      << "worker dispatched a third task while it holds two";
  // Each reply frees one place: task 12 follows task 10's result.
  send_result(*worker, 10, 2);
  EXPECT_EQ(recv_task(*worker).task_id, 12u);
  send_result(*worker, 11, 2);
  send_result(*worker, 12, 2);

  const auto done2 = recv_round_done(*f.master);
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ(done2->stats.size(), 3u);
  EXPECT_EQ(done2->best.task_id, 10u);

  // No task was lost or double-counted anywhere in the exchange.
  const ForemanStats& stats = f.shutdown();
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.tasks_completed, 5u);
  EXPECT_EQ(stats.mismatched_results, 1u);
  EXPECT_GE(stats.requeues, 1u);
  EXPECT_GE(stats.reinstatements, 1u);
  EXPECT_GE(stats.late_duplicate_results, 1u);
}

// A worker gets its next task queued behind its running one, so it never
// waits a round trip between tasks: a round of 4 sends exactly two before
// any reply, and each reply is answered with one more.
TEST(Foreman, QueuesOneTaskBehindTheRunningOne) {
  ScriptedForeman f(1, std::chrono::milliseconds(30000));
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});  // message 1
  send_round(*f.master, 1, {1, 2, 3, 4});              // 2

  ASSERT_TRUE(f.probe.await_idle(2));
  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);
  EXPECT_FALSE(has_waiting(*worker)) << "a third task before any reply";

  send_result(*worker, 1, 1);  // 3
  ASSERT_TRUE(f.probe.await_idle(3));
  EXPECT_EQ(recv_task(*worker).task_id, 3u);
  EXPECT_FALSE(has_waiting(*worker));
  send_result(*worker, 2, 1);  // 4
  ASSERT_TRUE(f.probe.await_idle(4));
  EXPECT_EQ(recv_task(*worker).task_id, 4u);
  send_result(*worker, 3, 1);
  send_result(*worker, 4, 1);

  const auto done = recv_round_done(*f.master);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->stats.size(), 4u);
  EXPECT_EQ(done->best.task_id, 1u);

  const ForemanStats& stats = f.shutdown();
  EXPECT_EQ(stats.tasks_dispatched, 4u);
  EXPECT_EQ(stats.tasks_completed, 4u);
  EXPECT_EQ(stats.requeues, 0u);
  EXPECT_EQ(stats.mismatched_results, 0u);
}

// A missed deadline requeues both of the worker's tasks at the front of the
// queue, running task first; another worker finishes the round, and the
// delinquent's late replies complete nothing twice.
TEST(Foreman, MissedDeadlineRequeuesBothTasksRunningFirst) {
  ScriptedForeman f(2, std::chrono::milliseconds(500));
  auto slow = f.worker(0);
  auto spare = f.worker(1);
  slow->send(kForemanRank, MessageTag::kHello, {});  // message 1
  send_round(*f.master, 1, {1, 2});                  // 2
  ASSERT_TRUE(f.probe.await_idle(2));
  EXPECT_EQ(recv_task(*slow).task_id, 1u);
  EXPECT_EQ(recv_task(*slow).task_id, 2u);
  // The spare joins with the queue empty, so it idles until the slow
  // worker's running task misses its deadline.
  spare->send(kForemanRank, MessageTag::kHello, {});  // 3
  ASSERT_TRUE(f.probe.await_idle(3));
  EXPECT_FALSE(has_waiting(*spare));

  EXPECT_EQ(recv_task(*spare).task_id, 1u);
  EXPECT_EQ(recv_task(*spare).task_id, 2u);
  send_result(*spare, 1, 1);
  send_result(*spare, 2, 1);
  const auto done = recv_round_done(*f.master);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(done->stats.size(), 2u);
  EXPECT_EQ(done->stats[0].task_id, 1u);
  EXPECT_EQ(done->stats[1].task_id, 2u);

  send_result(*slow, 1, 1);  // 6
  send_result(*slow, 2, 1);  // 7
  ASSERT_TRUE(f.probe.await_idle(7));
  const ForemanStats& stats = f.shutdown();
  EXPECT_EQ(stats.delinquencies, 1u);
  EXPECT_EQ(stats.requeues, 2u);
  EXPECT_EQ(stats.tasks_dispatched, 4u);
  EXPECT_EQ(stats.tasks_completed, 2u);
  EXPECT_EQ(stats.late_duplicate_results, 2u);
}

// A probation worker earns its way back with exactly one probe task and
// gets nothing queued behind it; a suspect gets no task at all.
TEST(Foreman, ProbationWorkerGetsOneProbeAndNoQueuedTask) {
  ScriptedForeman f(1, std::chrono::milliseconds(400));
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});  // message 1
  send_round(*f.master, 1, {1, 2, 3});                 // 2
  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);

  // Hold both past the deadline: suspect, and no task while suspect.
  EXPECT_TRUE(f.await_counter("foreman.delinquencies", 1));
  ASSERT_TRUE(f.probe.await_idle(2));
  EXPECT_FALSE(has_waiting(*worker)) << "a suspect was dispatched to";

  // The late reply completes task 1 and moves the worker to probation;
  // the requeued task 2 goes out as its one probe in the same dispatch,
  // so it is already waiting once the foreman has handled the reply.
  send_result(*worker, 1, 1);  // 3
  ASSERT_TRUE(f.probe.await_idle(3));
  EXPECT_EQ(recv_task(*worker, std::chrono::milliseconds(0)).task_id, 2u);
  EXPECT_FALSE(has_waiting(*worker)) << "a task was queued behind the probe";
  EXPECT_EQ(f.metrics.snapshot().counter("foreman.probation_probes"), 1u);

  // The probe passes: healthy again, the worker gets task 3 at once.
  send_result(*worker, 2, 1);
  EXPECT_EQ(recv_task(*worker).task_id, 3u);
  send_result(*worker, 3, 1);
  const auto done = recv_round_done(*f.master);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->stats.size(), 3u);

  const ForemanStats& stats = f.shutdown();
  EXPECT_EQ(stats.delinquencies, 1u);
  EXPECT_EQ(stats.probation_probes, 1u);
  EXPECT_EQ(stats.probation_passes, 1u);
  EXPECT_EQ(stats.tasks_completed, 3u);
}

// A queued task's deadline starts when the task ahead of it returns, not
// when it was sent: two back-to-back tasks, each held for 60% of the
// timeout, are together held past it without a delinquency. The holds are
// the quantity under test, so they are timed; a deadline counted from the
// dispatch would expire 100 ms before the second reply.
TEST(Foreman, QueuedTaskDeadlineStartsAtPromotion) {
  constexpr std::chrono::milliseconds kTimeout{500};
  ScriptedForeman f(1, kTimeout);
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});
  send_round(*f.master, 1, {1, 2});
  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);
  const auto received = std::chrono::steady_clock::now();

  std::this_thread::sleep_until(received + kTimeout * 6 / 10);
  send_result(*worker, 1, 1);
  std::this_thread::sleep_until(received + kTimeout * 12 / 10);
  send_result(*worker, 2, 1);
  const auto done = recv_round_done(*f.master);
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->stats.size(), 2u);

  const ForemanStats& stats = f.shutdown();
  EXPECT_EQ(stats.delinquencies, 0u);
  EXPECT_EQ(stats.requeues, 0u);
  EXPECT_EQ(stats.mismatched_results, 0u);
}

// Liveness beats run on the foreman's clock: with a 400 ms budget in the
// round message, a task held past a quarter of it draws one beat, dated
// from the round's arrival, and the result then ends the round without
// another.
TEST(Foreman, BeatsOnceWhenATaskIsHeldPastAQuarterBudget) {
  constexpr std::chrono::milliseconds kBudget{400};
  ScriptedForeman f(1, std::chrono::milliseconds(30000));
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});  // message 1
  const auto sent = std::chrono::steady_clock::now();
  send_round(*f.master, 1, {1}, kBudget);  // 2
  ASSERT_TRUE(f.probe.await_idle(2));
  EXPECT_EQ(recv_task(*worker, std::chrono::milliseconds(0)).task_id, 1u);

  // The worker holds its task; the beat comes from the foreman's timer.
  const auto beat = f.master->recv_for(std::chrono::seconds(5));
  const auto beaten = std::chrono::steady_clock::now();
  ASSERT_TRUE(beat.has_value());
  ASSERT_EQ(beat->tag, MessageTag::kProgress);
  const std::optional<ProgressMessage> progress =
      open_sealed(beat->payload, ProgressMessage::unpack);
  ASSERT_TRUE(progress.has_value());
  EXPECT_EQ(progress->round_id, 1u);
  EXPECT_EQ(progress->completed, 0u);
  EXPECT_EQ(progress->expected, 1u);
  // The idle time covers the hold so far: a quarter budget at least, and
  // no more than has passed since the round was sent.
  EXPECT_GE(std::chrono::milliseconds(progress->idle_ms), kBudget / 4);
  EXPECT_LE(std::chrono::milliseconds(progress->idle_ms), beaten - sent);

  send_result(*worker, 1, 1);  // 3
  const auto done = f.master->recv_for(std::chrono::seconds(5));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->tag, MessageTag::kRoundDone) << "a second beat";
  ASSERT_TRUE(f.probe.await_idle(3));
  EXPECT_FALSE(has_waiting(*f.master));
  f.shutdown();
}

// Results do not beat: a round whose results all arrive within a quarter
// of its budget sends the master its round-done and nothing else. The
// budget is far above the exchange's time, so load cannot make it beat.
TEST(Foreman, SendsNoBeatWhenResultsArriveWithinAQuarterBudget) {
  ScriptedForeman f(1, std::chrono::milliseconds(30000));
  auto worker = f.worker(0);
  worker->send(kForemanRank, MessageTag::kHello, {});     // message 1
  send_round(*f.master, 1, {1, 2}, std::chrono::seconds(20));  // 2
  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);
  send_result(*worker, 1, 1);  // 3
  send_result(*worker, 2, 1);  // 4
  ASSERT_TRUE(f.probe.await_idle(4));
  const auto done = f.master->recv_for(std::chrono::seconds(5));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->tag, MessageTag::kRoundDone);
  EXPECT_FALSE(has_waiting(*f.master)) << "a beat after the round";
  f.shutdown();
}

// --- full runtime ---

struct ParallelFixture {
  ParallelFixture(int taxa = 9, std::size_t sites = 200)
      : truth(3), alignment(make(taxa, sites, truth)), data(alignment) {}

  static Alignment make(int taxa, std::size_t sites, Tree& truth_out) {
    Rng rng(77);
    truth_out = random_yule_tree(taxa, rng);
    SimulateOptions options;
    options.num_sites = sites;
    return simulate_alignment(truth_out, default_taxon_names(taxa),
                              SubstModel::jc69(), RateModel::uniform(), options,
                              rng);
  }

  Tree truth;
  Alignment alignment;
  PatternAlignment data;
};

/// Polls the cluster's `foreman.hellos` until the foreman has handled
/// `workers` hellos or `bound` has passed. A test whose assertions need
/// work on particular workers waits for them before its search: these
/// searches are short (one worker finishes the 8x120 one in about 20 ms),
/// and a worker the foreman registers after the last round never holds a
/// task.
bool await_hellos(InProcessCluster& cluster, std::uint64_t workers,
                  std::chrono::milliseconds bound = std::chrono::seconds(10)) {
  const obs::Counter& hellos = cluster.metrics().counter("foreman.hellos");
  const auto deadline = std::chrono::steady_clock::now() + bound;
  while (hellos.value() < workers) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(Cluster, OneWorkerMatchesSerialExactly) {
  ParallelFixture fx;
  SearchOptions options;
  options.seed = 5;

  SerialTaskRunner serial(fx.data, SubstModel::jc69(), RateModel::uniform());
  const SearchResult serial_result =
      StepwiseSearch(fx.data, options).run(serial);

  ClusterOptions cluster_options;
  cluster_options.num_workers = 1;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  const SearchResult parallel_result =
      StepwiseSearch(fx.data, options).run(cluster.runner());

  EXPECT_EQ(parallel_result.best_newick, serial_result.best_newick);
  EXPECT_DOUBLE_EQ(parallel_result.best_log_likelihood,
                   serial_result.best_log_likelihood);
  EXPECT_EQ(parallel_result.trees_evaluated, serial_result.trees_evaluated);
}

TEST(Cluster, FourWorkersFindEquallyGoodTree) {
  ParallelFixture fx;
  SearchOptions options;
  options.seed = 5;

  SerialTaskRunner serial(fx.data, SubstModel::jc69(), RateModel::uniform());
  const SearchResult serial_result =
      StepwiseSearch(fx.data, options).run(serial);

  ClusterOptions cluster_options;
  cluster_options.num_workers = 4;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  ASSERT_TRUE(await_hellos(cluster, 4));
  const SearchResult parallel_result =
      StepwiseSearch(fx.data, options).run(cluster.runner());

  // Completion order may break likelihood ties differently, so compare
  // quality, not identity.
  EXPECT_NEAR(parallel_result.best_log_likelihood,
              serial_result.best_log_likelihood, 1e-6);

  cluster.shutdown();
  const ForemanStats& stats = cluster.foreman_stats();
  EXPECT_EQ(stats.tasks_completed, parallel_result.trees_evaluated);
  EXPECT_EQ(stats.requeues, 0u);
  EXPECT_EQ(stats.rounds, parallel_result.trace.rounds.size());
  // Work actually spread across workers.
  int busy_workers = 0;
  for (const obs::RankTelemetry& row : cluster.telemetry().ranks()) {
    if (row.counter("worker.tasks_evaluated") > 0) ++busy_workers;
  }
  EXPECT_GE(busy_workers, 2);
}

TEST(Cluster, WorkerStatsCarriedInTrace) {
  ParallelFixture fx;
  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  SearchOptions options;
  options.seed = 3;
  const SearchResult result = StepwiseSearch(fx.data, options).run(cluster.runner());
  for (const auto& round : result.trace.rounds) {
    ASSERT_EQ(round.task_bytes.size(), round.task_cpu_seconds.size());
    for (std::size_t i = 0; i < round.task_bytes.size(); ++i) {
      EXPECT_GT(round.task_bytes[i], 0u);
      EXPECT_GE(round.task_cpu_seconds[i], 0.0);
    }
  }
}

/// Wraps only worker rank 3's endpoint in a ChaosTransport running `plan`
/// (which passes the hello through untouched); the other workers stay
/// fault-free.
std::function<std::unique_ptr<Transport>(int, std::unique_ptr<Transport>)>
chaos_on_first_worker(FaultPlan plan) {
  return [plan](int rank, std::unique_ptr<Transport> inner)
             -> std::unique_ptr<Transport> {
    if (rank != kFirstWorkerRank) return inner;
    return std::make_unique<ChaosTransport>(std::move(inner), plan);
  };
}

TEST(Cluster, DroppedResultIsRequeuedToAnotherWorker) {
  ParallelFixture fx(8, 120);
  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.foreman.worker_timeout = std::chrono::milliseconds(100);
  // Worker rank 3 dies on its second send (the hello is the first), so its
  // first result never arrives: a crashed worker.
  FaultPlan crash;
  crash.crash_after_sends = 2;
  cluster_options.wrap_worker_transport = chaos_on_first_worker(crash);
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  ASSERT_TRUE(await_hellos(cluster, 2));
  SearchOptions options;
  options.seed = 9;
  const SearchResult result = StepwiseSearch(fx.data, options).run(cluster.runner());
  EXPECT_LT(result.best_log_likelihood, 0.0);
  cluster.shutdown();
  EXPECT_GE(cluster.foreman_stats().requeues, 1u);
  EXPECT_GE(cluster.foreman_stats().delinquencies, 1u);
  EXPECT_EQ(cluster.foreman_stats().tasks_completed, result.trees_evaluated);
  EXPECT_GE(cluster.metrics_snapshot().counter("foreman.requeues"), 1u);
}

TEST(Cluster, SlowWorkerIsReinstatedAfterLateReply) {
  ParallelFixture fx(8, 120);
  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.foreman.worker_timeout = std::chrono::milliseconds(80);
  // Every reply from worker rank 3 arrives 250 ms late, well past the
  // timeout — the paper's geographically-distributed-PVM scenario.
  FaultPlan slow;
  slow.delay = 1.0;
  slow.delay_min_ms = 250;
  slow.delay_max_ms = 250;
  cluster_options.wrap_worker_transport = chaos_on_first_worker(slow);
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  ASSERT_TRUE(await_hellos(cluster, 2));
  SearchOptions options;
  options.seed = 13;
  const SearchResult result = StepwiseSearch(fx.data, options).run(cluster.runner());
  EXPECT_LT(result.best_log_likelihood, 0.0);
  // The search can outrun the delayed reply; wait (bounded) for a late
  // result to reach the foreman before tearing the cluster down.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cluster.metrics_snapshot().counter("foreman.late_duplicate_results") <
             1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  cluster.shutdown();
  EXPECT_GE(cluster.foreman_stats().requeues, 1u);
  EXPECT_GE(cluster.foreman_stats().reinstatements, 1u);
  EXPECT_GE(cluster.foreman_stats().late_duplicate_results, 1u);
}

TEST(Cluster, ShutdownIsIdempotent) {
  ParallelFixture fx(8, 60);
  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  TreeTask task;
  Rng rng(1);
  const Tree tree = random_tree(8, rng);
  task.task_id = 1;
  task.newick = to_newick(tree, fx.data.names(), 17);
  const RoundOutcome outcome = cluster.runner().run_round({task});
  EXPECT_EQ(outcome.stats.size(), 1u);
  cluster.shutdown();
  cluster.shutdown();  // second call must be a no-op
}

// The fabric's traffic contract: a fault-free run sends exactly one task
// and one result per task, one round and one round-done per round, a fixed
// start/stop set — the worker's hello, the three shutdowns (master ->
// foreman -> monitor and worker) and the worker's final telemetry frame —
// and the foreman's liveness beats, which the master counts (none at the
// default budget). A side channel that re-counts the registry would break
// the equality.
TEST(Cluster, FaultFreeTrafficIsTwoMessagesPerTaskAndTwoPerRound) {
  ParallelFixture fx;
  ClusterOptions cluster_options;
  cluster_options.num_workers = 1;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  SearchOptions options;
  options.seed = 3;
  const SearchResult result =
      StepwiseSearch(fx.data, options).run(cluster.runner());
  cluster.shutdown();

  const ForemanStats& stats = cluster.foreman_stats();
  EXPECT_EQ(stats.tasks_dispatched, result.trees_evaluated);
  EXPECT_EQ(stats.rounds, result.trace.rounds.size());
  constexpr std::uint64_t kStartStop = 5;
  EXPECT_EQ(cluster.fabric_messages(),
            2 * stats.tasks_dispatched + 2 * stats.rounds + kStartStop +
                cluster.master_stats().progress_messages);
}

}  // namespace
}  // namespace fdml
