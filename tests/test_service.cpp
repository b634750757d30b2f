// Tests for the fdmld service layer: the service-plane codecs, bounded
// admission with explicit shed reasons, the job scheduler's fairness /
// supervision / drain contracts, the service endpoint's handling of
// malformed requests, and the socket-layer chaos proxy driving
// the reconnect-and-re-admission machinery end to end (the in-process
// version of the CI soak).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "comm/chaos_proxy.hpp"
#include "comm/integrity.hpp"
#include "comm/wire.hpp"
#include "model/simulate.hpp"
#include "obs/metrics.hpp"
#include "parallel/socket_cluster.hpp"
#include "search/search.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"
#include "service/server.hpp"
#include "tree/random.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

// ---------------------------------------------------------------------------
// Service-plane codecs

TEST(ServiceCodec, JobSpecRoundTrip) {
  JobSpec spec;
  spec.seed = 99;
  spec.rearrange_cross = 2;
  spec.final_rearrange_cross = 5;
  spec.name = "night-run";
  const JobSpec back = JobSpec::decode(spec.encode());
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.rearrange_cross, 2);
  EXPECT_EQ(back.final_rearrange_cross, 5);
  EXPECT_EQ(back.name, "night-run");
}

TEST(ServiceCodec, JobOutcomeRoundTrip) {
  JobOutcome outcome;
  outcome.job_id = 7;
  outcome.status = JobStatus::kInterrupted;
  outcome.newick = "((A,B),(C,D));";
  outcome.log_likelihood = -1234.5;
  outcome.resume_generation = 12;
  outcome.retries = 2;
  outcome.error = "drained";
  const JobOutcome back = JobOutcome::decode(outcome.encode());
  EXPECT_EQ(back.job_id, 7u);
  EXPECT_EQ(back.status, JobStatus::kInterrupted);
  EXPECT_EQ(back.newick, outcome.newick);
  EXPECT_EQ(back.log_likelihood, -1234.5);
  EXPECT_EQ(back.resume_generation, 12u);
  EXPECT_EQ(back.retries, 2u);
  EXPECT_EQ(back.error, "drained");
}

TEST(ServiceCodec, CorruptBytesThrowNeverCrash) {
  // The service endpoint decodes bytes from arbitrary clients; every
  // single-byte flip and truncation must throw or decode cleanly — never
  // crash, hang, or allocate from a corrupt length.
  const auto exercise = [](const std::vector<std::uint8_t>& bytes,
                           auto decode) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (const std::uint8_t mask :
           {std::uint8_t{0xFF}, std::uint8_t{0x01}, std::uint8_t{0x80}}) {
        auto corrupt = bytes;
        corrupt[i] ^= mask;
        try {
          decode(corrupt);
        } catch (const std::exception&) {
        }
      }
    }
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::uint8_t> truncated(
          bytes.begin(), bytes.begin() + static_cast<long>(cut));
      EXPECT_THROW(decode(truncated), std::exception) << "cut " << cut;
    }
  };
  exercise(JobSpec{}.encode(),
           [](const std::vector<std::uint8_t>& b) { (void)JobSpec::decode(b); });
  exercise(JobOutcome{}.encode(), [](const std::vector<std::uint8_t>& b) {
    (void)JobOutcome::decode(b);
  });
}

// ---------------------------------------------------------------------------
// Admission control

TEST(Admission, BoundedQueueShedsWithReason) {
  obs::MetricsRegistry registry;
  AdmissionOptions options;
  options.max_active = 1;
  options.max_queued = 1;
  AdmissionController admission(options, registry);

  EXPECT_FALSE(admission.try_admit().has_value());  // active slot
  EXPECT_FALSE(admission.try_admit().has_value());  // queue slot
  const auto shed = admission.try_admit();          // over capacity
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(*shed, RejectReason::kQueueFull);
  EXPECT_STREQ(reject_reason_name(*shed), "queue_full");

  // A finished job frees capacity; the queue is bounded, never growing.
  admission.release();
  EXPECT_FALSE(admission.try_admit().has_value());

  EXPECT_EQ(registry.snapshot().counter("service.jobs_submitted"), 4);
  EXPECT_EQ(registry.snapshot().counter("service.jobs_admitted"), 3);
  EXPECT_EQ(registry.snapshot().counter("service.jobs_rejected_full"), 1);
}

TEST(Admission, DrainingRejectsEverything) {
  obs::MetricsRegistry registry;
  AdmissionController admission(AdmissionOptions{}, registry);
  admission.drain();
  EXPECT_TRUE(admission.draining());
  const auto shed = admission.try_admit();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(*shed, RejectReason::kDraining);
  EXPECT_EQ(registry.snapshot().counter("service.jobs_rejected_draining"), 1);
}

// ---------------------------------------------------------------------------
// JobScheduler over a shared runner

PatternAlignment make_test_data(int taxa, std::size_t sites) {
  return PatternAlignment(make_paper_like_dataset(taxa, sites, 4242));
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

SearchResult solo_run(const PatternAlignment& data, std::uint64_t seed) {
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  SerialTaskRunner runner(data, model, RateModel::uniform());
  SearchOptions options;
  options.seed = seed;
  options.record_trace = false;
  return StepwiseSearch(data, options).run(runner);
}

TEST(JobScheduler, ConcurrentJobsMatchSoloRunsBitForBit) {
  // Four jobs multiplexed over ONE shared runner through the round gate:
  // every tree must equal its solo (unshared) run — fair interleaving must
  // not leak state between jobs.
  const PatternAlignment data = make_test_data(8, 120);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  SerialTaskRunner pool(data, model, RateModel::uniform());

  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.admission.max_active = 3;
  options.admission.max_queued = 8;
  options.metrics = &registry;
  JobScheduler scheduler(data, pool, options);

  const std::vector<std::uint64_t> seeds = {11, 13, 15, 17};
  std::vector<std::uint64_t> ids;
  for (const std::uint64_t seed : seeds) {
    JobSpec spec;
    spec.seed = seed;
    const auto submission = scheduler.submit(spec);
    ASSERT_FALSE(submission.rejected.has_value());
    ids.push_back(submission.job_id);
  }
  scheduler.wait_all();

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const JobOutcome outcome = scheduler.wait(ids[i]);
    ASSERT_EQ(outcome.status, JobStatus::kDone) << "seed " << seeds[i];
    const SearchResult reference = solo_run(data, seeds[i]);
    EXPECT_EQ(outcome.newick, reference.best_newick) << "seed " << seeds[i];
    EXPECT_EQ(outcome.log_likelihood, reference.best_log_likelihood);
  }
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, seeds.size());
  EXPECT_EQ(stats.in_flight, 0u);
  // Per-job observability exists under job.<id>.*.
  EXPECT_EQ(registry.snapshot().counter("job." + std::to_string(ids[0]) +
                                        ".completed"),
            1);
}

TEST(JobScheduler, OverCapacitySubmissionsAreShedNotQueued) {
  const PatternAlignment data = make_test_data(10, 200);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  SerialTaskRunner pool(data, model, RateModel::uniform());

  SchedulerOptions options;
  options.admission.max_active = 1;
  options.admission.max_queued = 1;
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  JobScheduler scheduler(data, pool, options);

  JobSpec spec;
  spec.seed = 11;
  const auto first = scheduler.submit(spec);
  spec.seed = 13;
  const auto second = scheduler.submit(spec);
  spec.seed = 15;
  const auto third = scheduler.submit(spec);
  ASSERT_FALSE(first.rejected.has_value());
  ASSERT_FALSE(second.rejected.has_value());
  ASSERT_TRUE(third.rejected.has_value());
  EXPECT_EQ(*third.rejected, RejectReason::kQueueFull);

  scheduler.wait_all();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_full, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST(JobScheduler, DrainCheckpointsInFlightAndResumeMatchesBitForBit) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("fdml_service_drain_test_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Big enough that the running job is still going when the drain lands
  // right after its first durable checkpoint.
  const PatternAlignment data = make_test_data(20, 500);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const std::vector<std::uint64_t> seeds = {21, 23};

  {
    SerialTaskRunner pool(data, model, RateModel::uniform());
    SchedulerOptions options;
    options.admission.max_active = 1;  // one runs, one queues
    options.checkpoint_dir = dir.string();
    JobScheduler scheduler(data, pool, options);
    std::vector<std::uint64_t> ids;
    for (const std::uint64_t seed : seeds) {
      JobSpec spec;
      spec.seed = seed;
      const auto submission = scheduler.submit(spec);
      ASSERT_FALSE(submission.rejected.has_value());
      ids.push_back(submission.job_id);
    }

    // Drain once the running job has committed a checkpoint (bounded wait,
    // not a fixed sleep the job has to outlast).
    const auto checkpointed = [&] {
      for (const obs::JobProgressRow& row : scheduler.progress()) {
        if (row.checkpoint_generation >= 1) return true;
      }
      return false;
    };
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!checkpointed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    scheduler.drain();
    scheduler.wait_all();

    // Whichever supervisor won the single active slot was interrupted at a
    // durable checkpoint (generation > 0); the queued one drained out
    // untouched (generation 0). Zero lost jobs either way.
    std::uint64_t running_generation = 0;
    for (const std::uint64_t id : ids) {
      const JobOutcome outcome = scheduler.wait(id);
      ASSERT_EQ(outcome.status, JobStatus::kInterrupted) << "job " << id;
      running_generation = std::max(running_generation,
                                    outcome.resume_generation);
    }
    EXPECT_GT(running_generation, 0u);
    EXPECT_EQ(scheduler.stats().in_flight, 0u);

    // Post-drain submissions are shed with the drain reason.
    JobSpec late_spec;
    late_spec.seed = 21;
    const auto late = scheduler.submit(late_spec);
    ASSERT_TRUE(late.rejected.has_value());
    EXPECT_EQ(*late.rejected, RejectReason::kDraining);
  }

  // A fresh scheduler (the restarted service) resumes what was
  // checkpointed and finishes with the uninterrupted runs' exact trees.
  {
    SerialTaskRunner pool(data, model, RateModel::uniform());
    SchedulerOptions options;
    options.checkpoint_dir = dir.string();
    JobScheduler scheduler(data, pool, options);
    for (const std::uint64_t seed : seeds) {
      JobSpec spec;
      spec.seed = seed;
      const auto resumed = scheduler.submit(spec);
      ASSERT_FALSE(resumed.rejected.has_value());
      const JobOutcome outcome = scheduler.wait(resumed.job_id);
      ASSERT_EQ(outcome.status, JobStatus::kDone) << "seed " << seed;
      const SearchResult reference = solo_run(data, seed);
      EXPECT_EQ(outcome.newick, reference.best_newick) << "seed " << seed;
      EXPECT_EQ(outcome.log_likelihood, reference.best_log_likelihood);
    }
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Service endpoint: malformed requests

/// What a raw client saw after sending one request frame.
struct RawReply {
  std::vector<WireFrame> frames;
  bool closed = false;  ///< the server closed the connection (EOF)
};

/// Sends one frame to the loopback service and reads until the server
/// closes the connection (or 10 s pass without a byte).
RawReply raw_exchange(std::uint16_t port, MessageTag tag,
                      const std::vector<std::uint8_t>& payload) {
  RawReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  timeval read_timeout{};
  read_timeout.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &read_timeout,
               sizeof(read_timeout));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  WireFrame frame;
  frame.tag = tag;
  frame.payload = payload;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  if (::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
      static_cast<ssize_t>(bytes.size())) {
    FrameParser parser;
    std::uint8_t buffer[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n <= 0) {
        reply.closed = n == 0;
        break;
      }
      parser.feed(buffer, static_cast<std::size_t>(n), reply.frames);
    }
  }
  ::close(fd);
  return reply;
}

TEST(ServiceServer, MalformedRequestsAreCountedAndRefused) {
  const PatternAlignment data = make_test_data(8, 120);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  SerialTaskRunner pool(data, model, RateModel::uniform());
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.metrics = &registry;
  JobScheduler scheduler(data, pool, options);
  ServiceServer server(scheduler, registry, ServiceServerOptions{});
  const auto counter = [&](const char* name) {
    return registry.snapshot().counter(name);
  };

  // Tag 17, once the JSON stats query, is no request: no reply, the
  // connection closes.
  const RawReply retired =
      raw_exchange(server.port(), static_cast<MessageTag>(17), {});
  EXPECT_TRUE(retired.closed);
  EXPECT_TRUE(retired.frames.empty());
  EXPECT_EQ(counter("service.bad_requests"), 1u);

  // A submission whose seal does not verify is refused as a bad request
  // and never reaches admission.
  std::vector<std::uint8_t> payload = JobSpec{}.encode();
  seal_payload(payload);
  payload.back() ^= 0xFF;
  const RawReply refused =
      raw_exchange(server.port(), MessageTag::kSubmit, payload);
  EXPECT_TRUE(refused.closed);
  ASSERT_EQ(refused.frames.size(), 1u);
  EXPECT_EQ(refused.frames[0].tag, MessageTag::kJobRejected);
  EXPECT_EQ(refused.frames[0].payload,
            std::vector<std::uint8_t>{
                static_cast<std::uint8_t>(RejectReason::kBadRequest)});
  EXPECT_EQ(counter("service.bad_requests"), 2u);
  EXPECT_EQ(counter("service.jobs_submitted"), 0u);
  server.close();
}

// ---------------------------------------------------------------------------
// Socket-layer chaos: the in-process soak

SocketOptions chaos_fabric_options(int rank, int size, std::uint16_t port) {
  SocketOptions options;
  options.rank = rank;
  options.size = size;
  options.port = port;
  options.connect_timeout = std::chrono::milliseconds(10000);
  options.connect_retry = std::chrono::milliseconds(20);
  options.reconnect = true;
  options.reconnect_backoff = std::chrono::milliseconds(10);
  options.reconnect_budget = std::chrono::milliseconds(10000);
  return options;
}

TEST(ChaosProxySoak, SearchSurvivesLatencyCorruptionAndMidStreamCloses) {
  // The full paper layout over TCP, every peer routed through a seeded
  // fault-injecting proxy (latency + byte corruption + abrupt mid-stream
  // closes). The run must complete with the serial tree bit for bit; the
  // retry/reconnect machinery absorbs the faults.
  const PatternAlignment data = make_test_data(8, 120);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();

  SearchOptions search_options;
  search_options.seed = 5;
  search_options.record_trace = false;
  SerialTaskRunner serial(data, model, rates);
  const SearchResult reference =
      StepwiseSearch(data, search_options).run(serial);

  constexpr int kSize = 5;  // master + foreman + monitor + 2 workers
  const std::uint16_t hub_port = pick_free_port();
  SocketRunOptions options;
  options.socket = chaos_fabric_options(0, kSize, hub_port);
  options.master.max_round_retries = 3;
  options.master.watchdog_timeout = std::chrono::milliseconds(3000);
  options.foreman.worker_timeout = std::chrono::milliseconds(1500);
  options.foreman.heartbeat_interval = std::chrono::milliseconds(200);

  FaultPlan plan;
  plan.seed = 77;
  plan.sock_latency = 0.10;
  plan.delay_min_ms = 1;
  plan.delay_max_ms = 5;
  plan.sock_corrupt = 0.001;
  plan.sock_close = 0.002;
  ChaosProxyOptions proxy_options;
  proxy_options.target_port = hub_port;
  proxy_options.plan = plan;

  SearchResult chaotic;
  ChaosProxyStats proxy_stats;
  {
    SocketCluster cluster(data, model, rates, options);
    ChaosProxy proxy(proxy_options);
    std::vector<std::thread> roles;
    for (int rank = 1; rank < kSize; ++rank) {
      roles.emplace_back([&, rank] {
        SocketRunOptions role_options = options;
        role_options.socket.rank = rank;
        role_options.socket.port = proxy.port();  // through the chaos
        EXPECT_NO_THROW(run_socket_role(data, model, rates, role_options));
      });
    }
    EXPECT_TRUE(cluster.wait_ready(std::chrono::milliseconds(10000)));
    chaotic = StepwiseSearch(data, search_options).run(cluster.runner());
    cluster.shutdown();
    for (auto& thread : roles) thread.join();
    proxy_stats = proxy.stats();
    proxy.close();
  }

  EXPECT_EQ(chaotic.best_newick, reference.best_newick);
  EXPECT_EQ(chaotic.best_log_likelihood, reference.best_log_likelihood);
  EXPECT_GT(proxy_stats.chunks, 0u);
}

TEST(WorkerReadmission, KilledWorkerRestartedWithSameRankIsReinstated) {
  // Kill a worker mid-run (abrupt connection loss, no final frame —
  // indistinguishable from kill -9 at the hub and foreman), restart it with
  // the same rank, and require the foreman's health machine to walk it
  // through quarantine -> probation -> healthy while the final tree stays
  // bit-for-bit the serial one.
  // Large enough that the kill lands mid-search with plenty of rounds left
  // for the health machine to walk (a solo run takes ~1.5 s).
  const PatternAlignment data = make_test_data(20, 500);
  const SubstModel model =
      SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  const RateModel rates = RateModel::uniform();

  SearchOptions search_options;
  search_options.seed = 9;
  search_options.record_trace = false;
  SerialTaskRunner serial(data, model, rates);
  const SearchResult reference =
      StepwiseSearch(data, search_options).run(serial);

  constexpr int kSize = 5;  // master + foreman + monitor + workers 3, 4
  const std::uint16_t hub_port = pick_free_port();

  SocketRunOptions options;
  options.socket.rank = 0;
  options.socket.size = kSize;
  options.socket.port = hub_port;
  options.socket.connect_timeout = std::chrono::milliseconds(10000);
  options.socket.connect_retry = std::chrono::milliseconds(20);
  options.master.max_round_retries = 3;
  options.master.watchdog_timeout = std::chrono::milliseconds(8000);
  options.foreman.worker_timeout = std::chrono::milliseconds(600);
  options.foreman.heartbeat_interval = std::chrono::milliseconds(150);
  // The foreman role runs in this process; its own registry lets the test
  // stage the kill on the foreman's counters instead of on sleeps.
  obs::MetricsRegistry foreman_metrics;
  options.foreman.metrics = &foreman_metrics;
  const auto wait_for_counter = [&](const char* name, std::uint64_t at_least) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (foreman_metrics.snapshot().counter(name) < at_least &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  };

  SocketCluster cluster(data, model, rates, options);

  // Worker 4 goes through a proxy so its "kill" is an abrupt sever; with
  // reconnect off its mailbox closes and the role loop exits — the
  // in-process stand-in for the process dying.
  ChaosProxyOptions proxy_options;
  proxy_options.target_port = hub_port;
  ChaosProxy proxy(proxy_options);

  SocketRoleResult foreman_result;
  std::vector<std::thread> roles;
  for (const int rank : {1, 2, 3}) {
    roles.emplace_back([&, rank] {
      SocketRunOptions role_options = options;
      role_options.socket.rank = rank;
      if (rank == 1) {
        foreman_result = run_socket_role(data, model, rates, role_options);
      } else {
        EXPECT_NO_THROW(run_socket_role(data, model, rates, role_options));
      }
    });
  }
  std::thread victim([&] {
    SocketRunOptions role_options = options;
    role_options.socket.rank = 4;
    role_options.socket.port = proxy.port();
    try {
      run_socket_role(data, model, rates, role_options);
    } catch (const std::exception&) {
      // A sever mid-rendezvous can surface as a throw; either way the
      // "process" is gone, which is the point.
    }
  });

  ASSERT_TRUE(cluster.wait_ready(std::chrono::milliseconds(10000)));
  std::thread searcher([&] {
    EXPECT_NO_THROW({
      const SearchResult result =
          StepwiseSearch(data, search_options).run(cluster.runner());
      EXPECT_EQ(result.best_newick, reference.best_newick);
      EXPECT_EQ(result.best_log_likelihood, reference.best_log_likelihood);
    });
  });

  // Kill worker 4 once the search is under way and the foreman knows it:
  // its first hello can reach the hub before the foreman has connected and
  // be dropped, and the heartbeat ping that recovers it comes 150 ms later,
  // after many tasks. A worker holds at most two tasks, its running one and
  // one queued behind it, so three in flight at once means both workers
  // hold one; dispatches are read before completions and requeues, so the
  // difference never overstates what was in flight. Restart worker 4 with
  // the same rank only after the foreman has declared it delinquent: a
  // replacement that connected first would simply serve the dead worker's
  // next task.
  wait_for_counter("foreman.tasks_completed", 10);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t dispatched =
        foreman_metrics.snapshot().counter("foreman.tasks_dispatched");
    const obs::MetricsSnapshot later = foreman_metrics.snapshot();
    if (dispatched >= later.counter("foreman.tasks_completed") +
                          later.counter("foreman.requeues") + 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  proxy.sever_all();
  victim.join();
  wait_for_counter("foreman.delinquencies", 1);
  std::thread replacement([&] {
    SocketRunOptions role_options = options;
    role_options.socket.rank = 4;  // same rank, fresh connection to the hub
    try {
      run_socket_role(data, model, rates, role_options);
    } catch (const std::exception&) {
      // The search may finish (and the hub close) while the replacement is
      // mid-rendezvous; that race is benign.
    }
  });

  searcher.join();
  cluster.shutdown();
  for (auto& thread : roles) thread.join();
  replacement.join();
  proxy.close();

  ASSERT_TRUE(foreman_result.foreman.has_value());
  const ForemanStats& foreman = *foreman_result.foreman;
  EXPECT_GE(foreman.delinquencies, 1u);
  EXPECT_GE(foreman.probations, 1u);
  EXPECT_GE(foreman.probation_passes, 1u);
  EXPECT_GE(foreman.reinstatements, 1u);
}

}  // namespace
}  // namespace fdml
