// Chaos harness tests: seeded fault schedules are reproducible, every
// injected fault class is survived by the hardened runtime, and a chaos
// run (or a killed-and-resumed run) produces the same tree as a clean one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "comm/chaos.hpp"
#include "comm/integrity.hpp"
#include "comm/transport.hpp"
#include "model/simulate.hpp"
#include "obs/metrics.hpp"
#include "parallel/cluster.hpp"
#include "parallel/foreman.hpp"
#include "parallel/master.hpp"
#include "parallel/protocol.hpp"
#include "parallel/worker.hpp"
#include "search/search.hpp"
#include "seq/alphabet.hpp"
#include "tree/newick.hpp"
#include "tree/random.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

using std::chrono::milliseconds;

// --- FaultPlan ---

TEST(FaultPlan, SerializeParseRoundTrip) {
  FaultPlan plan;
  plan.seed = 777;
  plan.drop = 0.125;
  plan.duplicate = 0.25;
  plan.corrupt = 0.0625;
  plan.reorder = 0.5;
  plan.delay = 0.375;
  plan.delay_min_ms = 2;
  plan.delay_max_ms = 33;
  plan.reorder_hold_ms = 7;
  plan.task_corrupt = 0.03125;
  plan.crash_after_sends = 42;

  const FaultPlan back = FaultPlan::parse(plan.serialize());
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_DOUBLE_EQ(back.drop, plan.drop);
  EXPECT_DOUBLE_EQ(back.duplicate, plan.duplicate);
  EXPECT_DOUBLE_EQ(back.corrupt, plan.corrupt);
  EXPECT_DOUBLE_EQ(back.reorder, plan.reorder);
  EXPECT_DOUBLE_EQ(back.delay, plan.delay);
  EXPECT_EQ(back.delay_min_ms, plan.delay_min_ms);
  EXPECT_EQ(back.delay_max_ms, plan.delay_max_ms);
  EXPECT_EQ(back.reorder_hold_ms, plan.reorder_hold_ms);
  EXPECT_DOUBLE_EQ(back.task_corrupt, plan.task_corrupt);
  EXPECT_EQ(back.crash_after_sends, plan.crash_after_sends);
}

TEST(FaultPlan, ParseRejectsGarbage) {
  EXPECT_THROW(FaultPlan::parse("not-a-plan v1 seed=1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("chaos-plan v9 seed=1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("chaos-plan v1 bogus_key=1"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("chaos-plan v1 drop=banana"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse("chaos-plan v1 noequals"), std::runtime_error);
}

// --- schedule reproducibility ---

std::vector<FaultRecord> run_schedule(const FaultPlan& plan, int messages) {
  ThreadFabric fabric(4);
  ChaosTransport chaos(fabric.endpoint(3), plan);
  for (int i = 0; i < messages; ++i) {
    std::vector<std::uint8_t> payload(16, static_cast<std::uint8_t>(i));
    seal_payload(payload);
    chaos.send(kForemanRank, MessageTag::kResult, std::move(payload));
  }
  return chaos.fault_log();
}

TEST(Chaos, SameSeedReproducesTheExactSchedule) {
  FaultPlan plan;
  plan.seed = 20010101;
  plan.drop = 0.2;
  plan.duplicate = 0.2;
  plan.corrupt = 0.2;
  plan.reorder = 0.2;
  plan.delay = 0.3;

  const auto first = run_schedule(plan, 64);
  const auto second = run_schedule(plan, 64);
  ASSERT_EQ(first.size(), 64u);
  EXPECT_EQ(first, second);

  // The schedule actually contains faults (not a vacuous comparison).
  int faulted = 0;
  for (const auto& record : first) {
    if (record.dropped || record.duplicated || record.corrupted ||
        record.reordered || record.delay_ms > 0) {
      ++faulted;
    }
  }
  EXPECT_GT(faulted, 10);

  // A different seed yields a different schedule.
  FaultPlan other = plan;
  other.seed = 20010102;
  EXPECT_NE(run_schedule(other, 64), first);

  // The plan survives its own serialization, so a logged plan line is
  // enough to replay a failing schedule.
  EXPECT_EQ(run_schedule(FaultPlan::parse(plan.serialize()), 64), first);
}

TEST(Chaos, DelayedSendDoesNotBlockTheSender) {
  ThreadFabric fabric(4);
  auto receiver = fabric.endpoint(kForemanRank);
  FaultPlan plan;
  plan.seed = 3;
  plan.delay = 1.0;
  plan.delay_min_ms = 80;
  plan.delay_max_ms = 80;
  ChaosTransport chaos(fabric.endpoint(3), plan);

  std::vector<std::uint8_t> payload(8, 0xab);
  seal_payload(payload);
  const auto before = std::chrono::steady_clock::now();
  chaos.send(kForemanRank, MessageTag::kResult, std::move(payload));
  const auto send_cost = std::chrono::steady_clock::now() - before;
  EXPECT_LT(send_cost, milliseconds(40)) << "send() slept in the caller";

  // Not yet delivered...
  EXPECT_FALSE(receiver->recv_for(milliseconds(5)).has_value());
  // ...but it arrives once the injected latency elapses.
  const auto message = receiver->recv_for(milliseconds(2000));
  ASSERT_TRUE(message.has_value());
  EXPECT_EQ(message->tag, MessageTag::kResult);
}

TEST(Chaos, CrashAfterSendsSilencesTheHost) {
  ThreadFabric fabric(4);
  auto receiver = fabric.endpoint(kForemanRank);
  FaultPlan plan;
  plan.crash_after_sends = 3;
  auto totals = std::make_shared<ChaosTotals>();
  ChaosTransport chaos(fabric.endpoint(3), plan, totals);

  chaos.send(kForemanRank, MessageTag::kHello, {});
  std::vector<std::uint8_t> payload{9};
  seal_payload(payload);
  chaos.send(kForemanRank, MessageTag::kResult, payload);
  EXPECT_FALSE(chaos.crashed());
  chaos.send(kForemanRank, MessageTag::kResult, payload);  // third send: dies
  EXPECT_TRUE(chaos.crashed());
  chaos.send(kForemanRank, MessageTag::kResult, payload);  // swallowed
  EXPECT_TRUE(chaos.closed());
  EXPECT_FALSE(chaos.recv_for(milliseconds(5)).has_value());

  // Exactly the two pre-crash messages made it out.
  EXPECT_TRUE(receiver->recv_for(milliseconds(200)).has_value());
  EXPECT_TRUE(receiver->recv_for(milliseconds(200)).has_value());
  EXPECT_FALSE(receiver->recv_for(milliseconds(50)).has_value());
  EXPECT_EQ(totals->crashes.load(), 1u);
  EXPECT_GE(totals->swallowed_after_crash.load(), 2u);
}

// --- scripted foreman under faults ---

void send_hello(Transport& worker) {
  worker.send(kForemanRank, MessageTag::kHello, {});
}

void send_task_round(Transport& master, std::uint64_t round_id,
                     std::initializer_list<std::uint64_t> task_ids) {
  RoundMessage round;
  round.round_id = round_id;
  for (std::uint64_t id : task_ids) {
    TreeTask task;
    task.task_id = id;
    task.round_id = round_id;
    task.newick = "(a:1,b:1,c:1);";
    round.tasks.push_back(task);
  }
  auto payload = round.pack();
  seal_payload(payload);
  master.send(kForemanRank, MessageTag::kRound, std::move(payload));
}

TreeTask recv_task_sealed(Transport& worker, milliseconds timeout) {
  auto message = worker.recv_for(timeout);
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

void send_result_sealed(Transport& worker, std::uint64_t task_id,
                        std::uint64_t round_id, bool corrupt_in_transit = false) {
  TaskResult result;
  result.task_id = task_id;
  result.round_id = round_id;
  result.log_likelihood = -50.0 - static_cast<double>(task_id);
  result.newick = "(a:1,b:1,c:1);";
  Packer packer;
  result.pack(packer);
  auto payload = packer.take();
  seal_payload(payload);
  if (corrupt_in_transit) payload[3] ^= 0x40;  // one flipped bit
  worker.send(kForemanRank, MessageTag::kResult, std::move(payload));
}

/// Skips kProgress heartbeats; returns the round's completion, or nullopt.
std::optional<RoundDoneMessage> await_round_done(Transport& master,
                                                 milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return std::nullopt;
    auto message = master.recv_for(remaining);
    if (!message.has_value()) return std::nullopt;
    if (message->tag != MessageTag::kRoundDone) continue;
    return open_sealed(message->payload, RoundDoneMessage::unpack);
  }
}

// The corrupt-result regression: a payload with a flipped bit used to throw
// out of the foreman's decode path and kill the thread (wedging the whole
// run). Now it is counted, the sender is quarantined into probation, and
// the task still completes through the probe.
TEST(ForemanChaos, CorruptResultIsCountedAndSenderQuarantined) {
  ThreadFabric fabric(4);
  ForemanOptions options;
  options.worker_timeout = milliseconds(3000);
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman([&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  send_hello(*worker);
  send_task_round(*master, 1, {1});

  const TreeTask task = recv_task_sealed(*worker, milliseconds(2000));
  EXPECT_EQ(task.task_id, 1u);
  // The result arrives corrupted. The old foreman died here.
  send_result_sealed(*worker, 1, 1, /*corrupt_in_transit=*/true);

  // The worker is quarantined, the task requeued; after the probation
  // backoff the foreman sends it one probe task, and a clean reply
  // completes the round.
  const TreeTask probe = recv_task_sealed(*worker, milliseconds(2000));
  EXPECT_EQ(probe.task_id, 1u);
  send_result_sealed(*worker, 1, 1);

  const auto done = await_round_done(*master, milliseconds(2000));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->best.task_id, 1u);

  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();

  EXPECT_EQ(stats.corrupt_messages, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.probations, 1u);
  EXPECT_EQ(stats.probation_probes, 1u);
  EXPECT_EQ(stats.probation_passes, 1u);
  EXPECT_EQ(stats.tasks_completed, 1u);
  EXPECT_GE(stats.requeues, 1u);
}

// Full worker lifecycle: healthy -> delinquent (timeout) -> probation (late
// reply) -> probe -> healthy again, with each transition visible in stats.
TEST(ForemanChaos, DelinquentProbationReinstatementLifecycle) {
  ThreadFabric fabric(4);
  ForemanOptions options;
  options.worker_timeout = milliseconds(150);
  obs::MetricsRegistry metrics;  // staged on counters, not sleeps
  options.metrics = &metrics;
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman([&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  send_hello(*worker);
  send_task_round(*master, 1, {1, 2});

  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 1u);
  // Task 2 comes queued behind task 1.
  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 2u);
  // Sit on both tasks until the foreman counts task 1 overdue: delinquent,
  // and both tasks requeued. The reply follows that count at once, well
  // before the dead-declare at roughly 2x the deadline, however loaded the
  // scheduler is.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics.snapshot().counter("foreman.delinquencies") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_GE(metrics.snapshot().counter("foreman.delinquencies"), 1u);
  // The late reply moves the worker to probation (the paper's
  // reinstatement, now conditional) and completes task 1.
  send_result_sealed(*worker, 1, 1);
  // The requeued task 2 goes out at once as the probation probe.
  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 2u);
  send_result_sealed(*worker, 2, 1);

  const auto done = await_round_done(*master, milliseconds(2000));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->stats.size(), 2u);

  // Healthy again: a fresh round dispatches to it immediately, no probe.
  send_task_round(*master, 2, {10});
  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 10u);
  send_result_sealed(*worker, 10, 2);
  ASSERT_TRUE(await_round_done(*master, milliseconds(2000)).has_value());

  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();

  EXPECT_EQ(stats.delinquencies, 1u);
  EXPECT_EQ(stats.reinstatements, 1u);
  EXPECT_EQ(stats.probations, 1u);
  EXPECT_EQ(stats.probation_probes, 1u);
  EXPECT_EQ(stats.probation_passes, 1u);
  EXPECT_EQ(stats.probation_failures, 0u);
  EXPECT_EQ(stats.tasks_completed, 3u);
  EXPECT_EQ(stats.rounds, 2u);
}

// A worker that NACKs a malformed task gets the task requeued without
// waiting out the deadline and without losing its healthy status.
TEST(ForemanChaos, NackRequeuesTaskImmediately) {
  ThreadFabric fabric(4);
  ForemanOptions options;
  options.worker_timeout = milliseconds(5000);  // a timeout would dominate the test
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman([&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  send_hello(*worker);
  send_task_round(*master, 1, {1});

  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 1u);
  worker->send(kForemanRank, MessageTag::kNack, {});
  // Resent well before the 5 s deadline.
  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 1u);
  send_result_sealed(*worker, 1, 1);
  ASSERT_TRUE(await_round_done(*master, milliseconds(2000)).has_value());

  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();

  EXPECT_EQ(stats.task_nacks, 1u);
  EXPECT_GE(stats.requeues, 1u);
  EXPECT_EQ(stats.delinquencies, 0u);
  EXPECT_EQ(stats.tasks_completed, 1u);
}

/// Skips progress beats; returns the next kRoundFailed, or nullopt.
std::optional<RoundFailedMessage> await_round_failed(Transport& master,
                                                     milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto remaining = std::chrono::duration_cast<milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) return std::nullopt;
    auto message = master.recv_for(remaining);
    if (!message.has_value()) return std::nullopt;
    if (message->tag != MessageTag::kRoundFailed) continue;
    return open_sealed(message->payload, RoundFailedMessage::unpack);
  }
}

// A NACK whose reason names the worker's in-flight task fails the round at
// once: no worker can evaluate that task, so a requeue would only circulate
// it until the master's watchdog tripped.
TEST(ForemanChaos, RejectedInFlightTaskFailsTheRoundWithoutRequeue) {
  ThreadFabric fabric(4);
  ForemanOptions options;
  options.worker_timeout = milliseconds(5000);  // a timeout would dominate the test
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman([&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  send_hello(*worker);
  send_task_round(*master, 1, {1});
  EXPECT_EQ(recv_task_sealed(*worker, milliseconds(2000)).task_id, 1u);

  TaskRejectedMessage rejected;
  rejected.round_id = 1;
  rejected.task_id = 1;
  rejected.reason = "focus task: taxon 40 is not in the tree";
  auto payload = rejected.pack();
  seal_payload(payload);
  worker->send(kForemanRank, MessageTag::kNack, std::move(payload));

  const auto failed = await_round_failed(*master, milliseconds(2000));
  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->round_id, 1u);
  EXPECT_EQ(failed->reason,
            "task 1 rejected: focus task: taxon 40 is not in the tree");
  EXPECT_EQ(stats.requeues, 0u);
  EXPECT_EQ(stats.rounds_failed, 1u);
  EXPECT_EQ(stats.rejected_tasks, 1u);
  EXPECT_EQ(stats.tasks_dispatched, 1u);
}

// With every known worker delinquent and work outstanding, the foreman
// reports kRoundFailed instead of letting the master wait forever.
TEST(ForemanChaos, AllWorkersDeadFailsTheRound) {
  ThreadFabric fabric(4);
  ForemanOptions options;
  options.worker_timeout = milliseconds(100);
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman([&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  send_hello(*worker);
  send_task_round(*master, 1, {1, 2});
  // Receive the task and never answer: the only worker dies.
  recv_task_sealed(*worker, milliseconds(2000));

  std::optional<Message> failure;
  const auto deadline = std::chrono::steady_clock::now() + milliseconds(3000);
  while (std::chrono::steady_clock::now() < deadline) {
    auto message = master->recv_for(milliseconds(200));
    if (message.has_value() && message->tag == MessageTag::kRoundFailed) {
      failure = std::move(message);
      break;
    }
  }
  ASSERT_TRUE(failure.has_value());
  const std::optional<RoundFailedMessage> failed =
      open_sealed(failure->payload, RoundFailedMessage::unpack);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->round_id, 1u);

  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();
  EXPECT_EQ(stats.rounds_failed, 1u);
  EXPECT_GE(stats.delinquencies, 1u);
}

// --- master watchdog ---

/// A three-taxon alignment (taxa a, b, c) for masters that evaluate
/// "(a:1,b:1,c:1);" through their own serial fallback.
PatternAlignment three_taxa() {
  Alignment alignment;
  alignment.add_sequence("a", string_to_codes("ACGTACGTAC"));
  alignment.add_sequence("b", string_to_codes("ACGTACGAAC"));
  alignment.add_sequence("c", string_to_codes("ACCTACGTTC"));
  return PatternAlignment(alignment);
}

TEST(MasterChaos, WatchdogDegradesToFallbackWhenAvailable) {
  ThreadFabric fabric(4);  // nobody is listening on the foreman rank
  auto endpoint = fabric.endpoint(kMasterRank);
  MasterOptions options;
  options.watchdog_timeout = milliseconds(120);
  const PatternAlignment data = three_taxa();
  ParallelMaster master(*endpoint, 1, data, SubstModel::jc69(),
                        RateModel::uniform(), options);

  TreeTask task;
  task.task_id = 7;
  task.newick = "(a:1,b:1,c:1);";
  const RoundOutcome outcome = master.run_round({task});
  EXPECT_EQ(outcome.best.task_id, 7u);
  EXPECT_LT(outcome.best.log_likelihood, 0.0);
  EXPECT_EQ(master.stats().watchdog_trips, 1u);
  EXPECT_EQ(master.stats().serial_fallbacks, 1u);

  // The fabric is known-wedged: the next round skips the watchdog wait.
  const auto before = std::chrono::steady_clock::now();
  master.run_round({task});
  EXPECT_LT(std::chrono::steady_clock::now() - before, milliseconds(100));
  EXPECT_EQ(master.stats().watchdog_trips, 1u);
  EXPECT_EQ(master.stats().serial_fallbacks, 2u);
}

// --- full cluster under chaos ---

struct ChaosFixture {
  ChaosFixture(int taxa = 8, std::size_t sites = 120)
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

// A task whose regraft marker is malformed fails TreeTask::unpack, so the
// worker NACKs it like any corrupt payload instead of evaluating it; the
// same task with a well-formed marker is evaluated.
TEST(WorkerChaos, MalformedRegraftMarkerIsNacked) {
  ChaosFixture fx;
  ThreadFabric fabric(4);
  auto worker_endpoint = fabric.endpoint(kFirstWorkerRank);
  WorkerStats stats;
  std::thread worker([&] {
    stats = worker_main(*worker_endpoint, fx.data, SubstModel::jc69(),
                        RateModel::uniform());
  });
  auto foreman = fabric.endpoint(kForemanRank);
  const auto next_tag = [&]() -> std::optional<MessageTag> {
    auto message = foreman->recv_for(milliseconds(5000));
    if (!message.has_value()) return std::nullopt;
    return message->tag;
  };
  const auto send_task = [&](std::array<int, 3> taxa) {
    TreeTask task;
    task.task_id = 1;
    task.round_id = 1;
    task.newick = to_newick(fx.truth, fx.data.names(), 17);
    task.regraft_taxa = taxa;
    task.screen_lnl = std::numeric_limits<double>::infinity();
    Packer packer;
    task.pack(packer);
    auto payload = packer.take();
    seal_payload(payload);
    foreman->send(kFirstWorkerRank, MessageTag::kTask, std::move(payload));
  };

  EXPECT_EQ(next_tag(), std::optional(MessageTag::kHello));
  send_task({0, 0, 1});  // repeats a taxon
  EXPECT_EQ(next_tag(), std::optional(MessageTag::kNack));
  send_task({0, 1, 2});
  EXPECT_EQ(next_tag(), std::optional(MessageTag::kResult));
  foreman->send(kFirstWorkerRank, MessageTag::kShutdown, {});
  worker.join();
  EXPECT_EQ(stats.corrupt_tasks, 1u);
  EXPECT_EQ(stats.tasks_evaluated, 1u);
}

// A task that decodes cleanly but makes the evaluator throw used to escape
// the worker thread and end the process. Now the worker answers with a
// NACK that carries the task's ids and the reason, and serves on.
TEST(WorkerChaos, TaskTheEvaluatorRejectsIsNackedWithAReason) {
  ChaosFixture fx;
  ThreadFabric fabric(4);
  auto worker_endpoint = fabric.endpoint(kFirstWorkerRank);
  WorkerStats stats;
  std::thread worker([&] {
    stats = worker_main(*worker_endpoint, fx.data, SubstModel::jc69(),
                        RateModel::uniform());
  });
  auto foreman = fabric.endpoint(kForemanRank);
  const auto next = [&] { return foreman->recv_for(milliseconds(5000)); };
  const auto send_task = [&](std::uint64_t id, const std::string& newick,
                             int focus_taxon) {
    TreeTask task;
    task.task_id = id;
    task.round_id = 1;
    task.newick = newick;
    task.focus_taxon = focus_taxon;
    Packer packer;
    task.pack(packer);
    auto payload = packer.take();
    seal_payload(payload);
    foreman->send(kFirstWorkerRank, MessageTag::kTask, std::move(payload));
  };
  const auto expect_rejection = [&](std::uint64_t id, const std::string& what) {
    auto message = next();
    ASSERT_TRUE(message.has_value());
    ASSERT_EQ(message->tag, MessageTag::kNack);
    const std::optional<TaskRejectedMessage> rejected =
        open_sealed(message->payload, TaskRejectedMessage::unpack);
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->round_id, 1u);
    EXPECT_EQ(rejected->task_id, id);
    EXPECT_NE(rejected->reason.find(what), std::string::npos)
        << rejected->reason;
  };
  const std::string truth = to_newick(fx.truth, fx.data.names(), 17);

  const auto hello = next();
  EXPECT_TRUE(hello.has_value() && hello->tag == MessageTag::kHello);
  send_task(1, truth, 40);  // 8 taxa: focus taxon 40 is not in the tree
  expect_rejection(1, "taxon 40");
  send_task(2, "(T0001:0.1,T0002:0.1,NOSUCH:0.1);", -1);
  expect_rejection(2, "NOSUCH");
  send_task(3, truth, -1);
  const auto result = next();
  EXPECT_TRUE(result.has_value() && result->tag == MessageTag::kResult);
  foreman->send(kFirstWorkerRank, MessageTag::kShutdown, {});
  worker.join();
  EXPECT_EQ(stats.rejected_tasks, 2u);
  EXPECT_EQ(stats.corrupt_tasks, 0u);
  EXPECT_EQ(stats.tasks_evaluated, 1u);
}

// The headline acceptance test: a seeded multi-fault chaos run returns the
// identical best tree and log-likelihood as the fault-free run with the
// same search seed.
TEST(ClusterChaos, SeededMultiFaultRunMatchesFaultFreeRun) {
  ChaosFixture fx;
  SearchOptions options;
  options.seed = 11;

  SerialTaskRunner serial(fx.data, SubstModel::jc69(), RateModel::uniform());
  const SearchResult clean = StepwiseSearch(fx.data, options).run(serial);

  FaultPlan plan;
  plan.seed = 424242;
  plan.drop = 0.05;
  plan.duplicate = 0.1;
  plan.corrupt = 0.05;
  plan.reorder = 0.1;
  plan.delay = 0.2;
  plan.delay_min_ms = 1;
  plan.delay_max_ms = 8;
  plan.task_corrupt = 0.05;
  // Every worker dies partway through the run (well before the search's
  // per-worker send count), so the acceptance schedule really combines
  // drop + delay + duplicate + corrupt + crash in one run: the early
  // rounds absorb recoverable faults, the tail degrades to in-process
  // evaluation — and the answer must not move either way.
  plan.crash_after_sends = 20;

  ClusterOptions cluster_options;
  cluster_options.num_workers = 3;
  cluster_options.foreman.worker_timeout = milliseconds(400);
  cluster_options.chaos = plan;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  const SearchResult chaotic =
      StepwiseSearch(fx.data, options).run(cluster.runner());
  cluster.shutdown();

  EXPECT_EQ(chaotic.best_newick, clean.best_newick);
  EXPECT_NEAR(chaotic.best_log_likelihood, clean.best_log_likelihood, 1e-9);
  EXPECT_EQ(chaotic.trees_evaluated, clean.trees_evaluated);

  // The run actually went through faults, and the runtime absorbed them.
  const auto totals = cluster.chaos_totals();
  ASSERT_NE(totals, nullptr);
  EXPECT_GT(totals->drops.load() + totals->corruptions.load() +
                totals->duplicates.load() + totals->delays.load() +
                totals->reorders.load() + totals->task_corruptions.load(),
            0u);
  // The parallel path did real work before the crashes (an all-serial run
  // would also match, since the fallback is the same evaluator — but then
  // this test would prove nothing), and the crash tail really ran serially.
  EXPECT_GT(cluster.foreman_stats().tasks_completed, 0u);
  EXPECT_EQ(totals->crashes.load(), 3u);
  EXPECT_GE(cluster.master_stats().serial_fallbacks, 1u);
}

// Crash every worker after its first result send: the foreman declares the
// round unfinishable and the master degrades to in-process evaluation —
// the search still finishes, with the serial answer.
TEST(ClusterChaos, AllWorkerCrashDegradesToSerialAndFinishes) {
  ChaosFixture fx;
  SearchOptions options;
  options.seed = 7;

  SerialTaskRunner serial(fx.data, SubstModel::jc69(), RateModel::uniform());
  const SearchResult expected = StepwiseSearch(fx.data, options).run(serial);

  FaultPlan plan;
  plan.seed = 5;
  plan.crash_after_sends = 2;  // hello goes out, the first result kills it

  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.foreman.worker_timeout = milliseconds(120);
  cluster_options.chaos = plan;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  const SearchResult degraded =
      StepwiseSearch(fx.data, options).run(cluster.runner());
  cluster.shutdown();

  EXPECT_EQ(degraded.best_newick, expected.best_newick);
  EXPECT_NEAR(degraded.best_log_likelihood, expected.best_log_likelihood, 1e-9);
  EXPECT_EQ(cluster.chaos_totals()->crashes.load(), 2u);
  EXPECT_GE(cluster.master_stats().rounds_failed, 1u);
  EXPECT_GE(cluster.master_stats().serial_fallbacks, 1u);
  EXPECT_GE(cluster.foreman_stats().rounds_failed, 1u);
}

// A task every evaluator rejects fails its round at the foreman; the
// master's own serial fallback then throws the evaluator's error on the
// master's thread, as a serial run would.
TEST(ClusterChaos, RejectedTaskThrowsTheEvaluatorsErrorOnTheMaster) {
  ChaosFixture fx;
  ClusterOptions cluster_options;
  cluster_options.num_workers = 1;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  TreeTask task;
  task.task_id = 1;
  task.newick = to_newick(fx.truth, fx.data.names(), 17);
  task.focus_taxon = 40;  // 8 taxa: not in the tree
  try {
    cluster.runner().run_round({task});
    ADD_FAILURE() << "a rejected task completed its round";
  } catch (const std::exception& error) {
    EXPECT_NE(std::string(error.what()).find("taxon 40"), std::string::npos)
        << error.what();
  }
  cluster.shutdown();
  EXPECT_EQ(cluster.foreman_stats().rejected_tasks, 1u);
  EXPECT_EQ(cluster.master_stats().rounds_failed, 1u);
  EXPECT_EQ(cluster.master_stats().serial_fallbacks, 1u);
}

// --- kill + resume under chaos ---

/// Throws after a fixed number of rounds — the "power cut" for the
/// checkpoint/restart test.
class KillSwitchRunner final : public TaskRunner {
 public:
  KillSwitchRunner(TaskRunner& inner, int rounds_before_kill)
      : inner_(inner), remaining_(rounds_before_kill) {}

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override {
    if (remaining_-- <= 0) throw std::runtime_error("killed");
    return inner_.run_round(tasks);
  }
  int worker_count() const override { return inner_.worker_count(); }

 private:
  TaskRunner& inner_;
  int remaining_;
};

// A parallel run killed mid-search resumes from its round-granular
// checkpoint — possibly mid-rearrangement — and, under a fresh chaos
// schedule, still reproduces the uninterrupted best tree bit-for-bit.
TEST(ClusterChaos, KilledRunResumesFromCheckpointIdentically) {
  ChaosFixture fx;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("fdml_chaos_ckpt_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "run.ckpt").string();

  SearchOptions options;
  options.seed = 19;
  options.checkpoint_path = path;

  SerialTaskRunner serial(fx.data, SubstModel::jc69(), RateModel::uniform());
  SearchOptions clean_options = options;
  clean_options.checkpoint_path.clear();
  const SearchResult full = StepwiseSearch(fx.data, clean_options).run(serial);

  FaultPlan plan;
  plan.seed = 99;
  plan.drop = 0.05;
  plan.delay = 0.2;
  plan.delay_max_ms = 5;
  plan.corrupt = 0.05;

  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  cluster_options.foreman.worker_timeout = milliseconds(400);
  cluster_options.chaos = plan;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);

  // Run until the kill switch trips mid-search.
  KillSwitchRunner killed(cluster.runner(), 9);
  EXPECT_THROW(StepwiseSearch(fx.data, options).run(killed),
               std::runtime_error);

  // Resume on the same (still chaotic) cluster from the saved state.
  const auto recovered = recover_checkpoint(path, 0);
  ASSERT_TRUE(recovered.has_value()) << "the killed run left no checkpoint";
  const SearchCheckpoint& checkpoint = recovered->checkpoint;
  EXPECT_LT(checkpoint.next_order_index, static_cast<int>(fx.data.num_taxa()) + 1);
  SearchOptions resume_options = options;
  resume_options.checkpoint_path.clear();
  const SearchResult resumed =
      StepwiseSearch(fx.data, resume_options).resume(cluster.runner(), checkpoint);
  cluster.shutdown();

  EXPECT_EQ(resumed.best_newick, full.best_newick);
  EXPECT_NEAR(resumed.best_log_likelihood, full.best_log_likelihood, 1e-9);
  std::filesystem::remove_all(dir);
}

// A checkpoint written mid-rearrangement round-trips every field.
TEST(ClusterChaos, RearrangePhaseCheckpointRoundTrips) {
  SearchCheckpoint checkpoint;
  checkpoint.seed = 19;
  checkpoint.addition_order = {2, 0, 1, 3};
  checkpoint.next_order_index = 4;
  checkpoint.tree_newick = "(a:0.1,b:0.2,(c:0.3,d:0.4):0.5);";
  checkpoint.log_likelihood = -77.5;
  checkpoint.phase = SearchPhase::kRearrange;
  checkpoint.rearrange_rounds_done = 3;
  checkpoint.rearrange_cross = 2;

  std::stringstream buffer;
  checkpoint.save(buffer);
  const SearchCheckpoint back = SearchCheckpoint::load(buffer);
  EXPECT_EQ(back.phase, SearchPhase::kRearrange);
  EXPECT_EQ(back.rearrange_rounds_done, 3);
  EXPECT_EQ(back.rearrange_cross, 2);
  EXPECT_EQ(back.addition_order, checkpoint.addition_order);
}

}  // namespace
}  // namespace fdml
