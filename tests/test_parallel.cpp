// Tests for the message fabric, the protocol codecs, and the full
// master/foreman/worker/monitor runtime — including the paper's timeout
// fault tolerance (requeue, delinquency, reinstatement), the fabric's
// traffic contract and per-worker totals reaching rank 0 by telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
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
  for (int i = 0; i < 3; ++i) {
    TreeTask task;
    task.task_id = static_cast<std::uint64_t>(100 + i);
    task.newick = "(a:1,b:1,c:1);";
    task.focus_taxon = i;
    round.tasks.push_back(task);
  }
  const RoundMessage back = RoundMessage::unpack(round.pack());
  EXPECT_EQ(back.round_id, 12u);
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
  const RoundDoneMessage back = RoundDoneMessage::unpack(done.pack());
  EXPECT_DOUBLE_EQ(back.best.log_likelihood, -321.75);
  ASSERT_EQ(back.stats.size(), 1u);
  EXPECT_EQ(back.stats[0].bytes, 512u);
  EXPECT_EQ(back.stats[0].worker, 4);
}

// --- scripted foreman (transport-level) ---

TreeTask recv_task(Transport& endpoint) {
  auto message = endpoint.recv();
  EXPECT_TRUE(message.has_value());
  EXPECT_EQ(message->tag, MessageTag::kTask);
  EXPECT_TRUE(open_payload(message->payload));
  Unpacker unpacker(message->payload);
  return TreeTask::unpack(unpacker);
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

void send_round(Transport& endpoint, std::uint64_t round_id,
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
  endpoint.send(kForemanRank, MessageTag::kRound, std::move(payload));
}

/// Waits for the round's kRoundDone, skipping the kProgress heartbeats the
/// hardened foreman interleaves.
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
    EXPECT_TRUE(open_payload(message->payload));
    return RoundDoneMessage::unpack(message->payload);
  }
}

// Regression: a delinquent worker's stale result (for a task the foreman had
// already requeued and accepted) used to push the worker onto the ready
// queue a second time while its new task was still in flight. The next round
// then dispatched two tasks to the same worker back-to-back, overwriting the
// in-flight record and silently losing a task. The test scripts a single
// worker against a live foreman and asserts exactly-once dispatch.
TEST(Foreman, StaleResultDoesNotDoubleBookWorker) {
  ThreadFabric fabric(4);  // master, foreman, monitor, one worker
  ForemanOptions options;
  options.worker_timeout = std::chrono::milliseconds(400);
  obs::MetricsRegistry metrics;  // staged on counters, not sleeps
  options.metrics = &metrics;
  auto foreman_endpoint = fabric.endpoint(kForemanRank);
  ForemanStats stats;
  std::thread foreman(
      [&] { stats = foreman_main(*foreman_endpoint, options); });

  auto master = fabric.endpoint(kMasterRank);
  auto worker = fabric.endpoint(kFirstWorkerRank);
  worker->send(kForemanRank, MessageTag::kHello, {});
  send_round(*master, 1, {1, 2});

  EXPECT_EQ(recv_task(*worker).task_id, 1u);
  // Hold task 1 past the timeout: the foreman requeues it and marks the
  // worker delinquent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics.snapshot().counter("foreman.delinquencies") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(metrics.snapshot().counter("foreman.delinquencies"), 1u);
  // The late reply reinstates the worker and completes task 1 (the requeued
  // copy is dropped from the queue); task 2 is dispatched next.
  send_result(*worker, 1, 1);
  EXPECT_EQ(recv_task(*worker).task_id, 2u);
  // A stale duplicate of task 1 arrives while task 2 is in flight — the
  // mismatch that used to double-book the worker.
  send_result(*worker, 1, 1);
  send_result(*worker, 2, 1);

  const auto done1 = recv_round_done(*master);
  ASSERT_TRUE(done1.has_value());
  EXPECT_EQ(done1->stats.size(), 2u);

  send_round(*master, 2, {10, 11, 12});
  EXPECT_EQ(recv_task(*worker).task_id, 10u);
  // Exactly-once dispatch: with task 10 in flight no second task may arrive.
  const auto double_booked =
      worker->recv_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(double_booked.has_value())
      << "worker dispatched a second task while one is in flight";

  // Finish the round, answering whatever is dispatched.
  if (double_booked.has_value() && double_booked->tag == MessageTag::kTask) {
    auto payload = double_booked->payload;
    EXPECT_TRUE(open_payload(payload));
    Unpacker unpacker(payload);
    send_result(*worker, TreeTask::unpack(unpacker).task_id, 2);
  }
  send_result(*worker, 10, 2);
  for (;;) {
    auto message = worker->recv_for(std::chrono::milliseconds(500));
    if (!message.has_value() || message->tag != MessageTag::kTask) break;
    EXPECT_TRUE(open_payload(message->payload));
    Unpacker unpacker(message->payload);
    send_result(*worker, TreeTask::unpack(unpacker).task_id, 2);
  }

  const auto done2 = recv_round_done(*master);
  ASSERT_TRUE(done2.has_value());
  EXPECT_EQ(done2->stats.size(), 3u);
  EXPECT_EQ(done2->best.task_id, 10u);

  master->send(kForemanRank, MessageTag::kShutdown, {});
  foreman.join();

  // No task was lost or double-counted anywhere in the exchange.
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.tasks_completed, 5u);
  EXPECT_EQ(stats.mismatched_results, 1u);
  EXPECT_GE(stats.requeues, 1u);
  EXPECT_GE(stats.reinstatements, 1u);
  EXPECT_GE(stats.late_duplicate_results, 1u);
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

// The fabric's traffic contract: a fault-free run sends exactly one task,
// one result and one progress beat per task, one round and one round-done
// per round, and a fixed start/stop set — the worker's hello, the three
// shutdowns (master -> foreman -> monitor and worker) and the worker's
// final telemetry frame. A side channel that re-counts the registry would
// break the equality.
TEST(Cluster, FaultFreeTrafficIsThreeMessagesPerTaskAndTwoPerRound) {
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
            3 * stats.tasks_dispatched + 2 * stats.rounds + kStartStop);
}

}  // namespace
}  // namespace fdml
