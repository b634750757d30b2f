// Tests for the observability layer: metrics registry consistency under
// concurrent bumps, span tracer ring semantics, Chrome trace round-trips,
// flow-arc pairing across a real parallel run, report math against a
// hand-computed trace, and per-worker totals reaching rank 0 by telemetry.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "model/simulate.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "parallel/cluster.hpp"
#include "parallel/protocol.hpp"
#include "search/search.hpp"
#include "simcluster/simulator.hpp"
#include "tree/random.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace fdml {
namespace {

// --- metrics registry ---

TEST(Metrics, ConcurrentCounterBumpsAreLossless) {
  obs::MetricsRegistry registry;
  obs::Counter& hits = registry.counter("test.hits");
  constexpr int kThreads = 8;
  constexpr int kBumps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Re-resolve by name: registration must hand every thread the same
      // cell, and bumps must never be lost.
      obs::Counter& mine = registry.counter("test.hits");
      for (int i = 0; i < kBumps; ++i) mine.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hits.value(), static_cast<std::uint64_t>(kThreads) * kBumps);
  EXPECT_EQ(registry.snapshot().counter("test.hits"),
            static_cast<std::uint64_t>(kThreads) * kBumps);
}

TEST(Metrics, GaugeAndMissingNames) {
  obs::MetricsRegistry registry;
  registry.gauge("test.depth").set(7);
  registry.gauge("test.depth").add(-3);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("test.depth"), 4);
  EXPECT_EQ(snap.counter("never.registered"), 0u);
  EXPECT_EQ(snap.gauge("never.registered"), 0);
}

TEST(Metrics, HistogramBucketsAndOverflow) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("test.lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (inclusive bound)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1006.5);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "test.lat");
  EXPECT_EQ(snap.histograms[0].buckets,
            (std::vector<std::uint64_t>{2, 1, 0, 1}));
  EXPECT_NE(snap.to_json().find("test.lat"), std::string::npos);
}

// --- tracer rings ---

struct TracerGuard {
  explicit TracerGuard(std::size_t capacity = 1 << 12) {
    obs::Tracer::instance().enable(capacity);
  }
  ~TracerGuard() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().reset();
  }
};

TEST(Tracer, RingOverflowKeepsNewestAndCountsDrops) {
  TracerGuard guard(8);
  obs::set_thread_name("ring-test");
  for (int i = 0; i < 20; ++i) {
    obs::instant("test", "tick", "i", i);
  }
  EXPECT_EQ(obs::Tracer::instance().dropped(), 12u);
  const obs::TraceLog log = obs::Tracer::instance().drain();
  EXPECT_EQ(log.dropped_events, 12u);
  std::vector<std::int64_t> kept;
  for (const obs::LogEvent& e : log.events) {
    if (e.cat == "test") kept.push_back(e.arg0);
  }
  // The 8 newest survive, in order.
  ASSERT_EQ(kept.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(kept[static_cast<std::size_t>(i)], 12 + i);
}

TEST(Tracer, DisabledRecordingIsANoOp) {
  ASSERT_FALSE(obs::trace_enabled());
  obs::instant("test", "ignored");
  obs::counter("test.counter", 1);
  { obs::Span span("test", "ignored-span"); }
  const obs::TraceLog log = obs::Tracer::instance().drain();
  for (const obs::LogEvent& e : log.events) {
    EXPECT_NE(e.cat, "test");
  }
}

TEST(Tracer, ChromeRoundTripPreservesEventsAndThreads) {
  TracerGuard guard;
  obs::set_thread_name("roundtrip");
  {
    obs::Span span("cat", "work", "in", 42);
    span.set_end_args("out", 7);
    obs::flow(obs::Phase::kFlowBegin, obs::task_flow_id(3, 9));
    obs::counter("depth", 5);
  }
  const obs::TraceLog original = obs::Tracer::instance().drain();
  std::ostringstream out;
  original.write_chrome(out);

  const obs::TraceLog loaded = obs::load_chrome_trace(out.str());
  ASSERT_EQ(loaded.events.size(), original.events.size());
  bool saw_begin = false, saw_end = false, saw_flow = false, saw_counter = false;
  for (const obs::LogEvent& e : loaded.events) {
    if (e.ph == obs::Phase::kBegin && e.name == "work") {
      saw_begin = true;
      EXPECT_EQ(e.arg0_name, "in");
      EXPECT_EQ(e.arg0, 42);
    }
    if (e.ph == obs::Phase::kEnd && e.name == "work") {
      saw_end = true;
      EXPECT_EQ(e.arg0_name, "out");
      EXPECT_EQ(e.arg0, 7);
    }
    if (e.ph == obs::Phase::kFlowBegin) {
      saw_flow = true;
      EXPECT_EQ(e.id, obs::task_flow_id(3, 9));
    }
    if (e.ph == obs::Phase::kCounter && e.name == "depth") {
      saw_counter = true;
      EXPECT_EQ(e.arg0, 5);
    }
  }
  EXPECT_TRUE(saw_begin && saw_end && saw_flow && saw_counter);
  bool named = false;
  for (const auto& [tid, name] : loaded.threads) {
    if (name == "roundtrip") named = true;
  }
  EXPECT_TRUE(named);
}

// --- report math on a hand-computed trace ---

obs::TraceLog two_worker_trace() {
  // worker A busy [0,2] and [3,5]; worker B busy [1,4]; wall = 6s (an
  // instant at t=6 pins the end). Hand-computed: busy = 7, covered union
  // = [0,5] = 5, serial fraction = 1 - 5/6, utilization = 7/12.
  obs::TraceLog log;
  log.set_thread(3, "worker-3");
  log.set_thread(4, "worker-4");
  const double s = 1e9;
  log.add(3, obs::Phase::kBegin, 0.0 * s, "worker", "task");
  log.add(3, obs::Phase::kEnd, 2.0 * s, "worker", "task");
  log.add(3, obs::Phase::kBegin, 3.0 * s, "worker", "task");
  log.add(3, obs::Phase::kEnd, 5.0 * s, "worker", "task");
  log.add(4, obs::Phase::kBegin, 1.0 * s, "worker", "task");
  log.add(4, obs::Phase::kEnd, 4.0 * s, "worker", "task");
  log.add(1, obs::Phase::kInstant, 6.0 * s, "foreman", "delinquent");
  log.sort_events();
  return log;
}

TEST(Report, HandComputedTwoWorkerMath) {
  const obs::TraceReport report = obs::analyze_trace(two_worker_trace(), 6);
  EXPECT_EQ(report.workers, 2);
  EXPECT_EQ(report.tasks, 3u);
  EXPECT_NEAR(report.wall_seconds, 6.0, 1e-9);
  EXPECT_NEAR(report.busy_seconds, 7.0, 1e-9);
  EXPECT_NEAR(report.covered_seconds, 5.0, 1e-9);
  EXPECT_NEAR(report.serial_fraction, 1.0 - 5.0 / 6.0, 1e-9);
  EXPECT_NEAR(report.utilization, 7.0 / 12.0, 1e-9);
  EXPECT_NEAR(report.mean_task_seconds, 7.0 / 3.0, 1e-9);

  ASSERT_EQ(report.per_worker.size(), 2u);
  EXPECT_NEAR(report.per_worker[0].busy_seconds, 4.0, 1e-9);
  EXPECT_EQ(report.per_worker[0].tasks, 2u);
  EXPECT_NEAR(report.per_worker[1].busy_seconds, 3.0, 1e-9);

  // 1s bins for worker A: busy 0-2 and 3-5 -> [1,1,0,1,1,0].
  ASSERT_EQ(report.per_worker[0].timeline.size(), 6u);
  EXPECT_NEAR(report.per_worker[0].timeline[2], 0.0, 1e-9);
  EXPECT_NEAR(report.per_worker[0].timeline[3], 1.0, 1e-9);

  const std::string text = obs::render_report(report);
  EXPECT_NE(text.find("worker-3"), std::string::npos);
  EXPECT_NE(text.find("serial fraction"), std::string::npos);
}

TEST(Report, ScalingRowMath) {
  obs::TraceReport baseline;
  baseline.wall_seconds = 10.0;
  baseline.workers = 1;
  obs::TraceReport run;
  run.wall_seconds = 2.5;
  run.workers = 4;
  const obs::ScalingRow row = obs::scaling_row(baseline, run);
  EXPECT_EQ(row.workers, 4);
  EXPECT_NEAR(row.speedup, 4.0, 1e-9);
  EXPECT_NEAR(row.efficiency, 1.0, 1e-9);
  EXPECT_NE(obs::render_scaling(row).find("speedup"), std::string::npos);
}

// --- full parallel run: trace shape, flows, worker totals ---

struct ObsFixture {
  ObsFixture(int taxa = 9, std::size_t sites = 120)
      : alignment(make(taxa, sites)), data(alignment) {}

  static Alignment make(int taxa, std::size_t sites) {
    Rng rng(77);
    const Tree truth = random_yule_tree(taxa, rng);
    SimulateOptions options;
    options.num_sites = sites;
    return simulate_alignment(truth, default_taxon_names(taxa),
                              SubstModel::jc69(), RateModel::uniform(),
                              options, rng);
  }

  Alignment alignment;
  PatternAlignment data;
};

TEST(Obs, TracedClusterRunHasBalancedSpansAndPairedFlows) {
  TracerGuard guard(1 << 16);
  ObsFixture fx;
  SearchOptions options;
  options.seed = 5;
  ClusterOptions cluster_options;
  cluster_options.num_workers = 4;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  StepwiseSearch(fx.data, options).run(cluster.runner());
  cluster.shutdown();
  obs::Tracer::instance().disable();

  std::ostringstream out;
  obs::Tracer::instance().drain().write_chrome(out);
  const obs::TraceLog log = obs::load_chrome_trace(out.str());
  ASSERT_EQ(log.dropped_events, 0u)
      << "ring overflowed; span pairing below would be vacuous";

  // Worker task spans must balance per thread.
  std::map<int, int> open;
  std::uint64_t tasks = 0;
  // Flow arcs: every dispatch (s) pairs with an accept (f) and at least
  // one execute step (t) under the same id.
  std::map<std::uint64_t, std::array<int, 3>> flows;
  for (const obs::LogEvent& e : log.events) {
    if (e.cat == "worker" && e.name == "task") {
      if (e.ph == obs::Phase::kBegin) {
        EXPECT_EQ(open[e.tid], 0) << "nested task span on tid " << e.tid;
        ++open[e.tid];
      } else if (e.ph == obs::Phase::kEnd) {
        --open[e.tid];
        ++tasks;
      }
    }
    if (e.cat == "flow") {
      if (e.ph == obs::Phase::kFlowBegin) ++flows[e.id][0];
      if (e.ph == obs::Phase::kFlowStep) ++flows[e.id][1];
      if (e.ph == obs::Phase::kFlowEnd) ++flows[e.id][2];
    }
  }
  for (const auto& [tid, count] : open) {
    EXPECT_EQ(count, 0) << "unbalanced spans on tid " << tid;
  }
  EXPECT_GT(tasks, 0u);
  EXPECT_FALSE(flows.empty());
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts[0], 1) << "flow " << id;
    EXPECT_GE(counts[1], 1) << "flow " << id;
    EXPECT_EQ(counts[2], 1) << "flow " << id;
  }

  // The report on the same trace must see the paper's layout.
  const obs::TraceReport report = obs::analyze_trace(log);
  EXPECT_EQ(report.workers, 4);
  EXPECT_EQ(report.tasks, tasks);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.05);
  EXPECT_GE(report.serial_fraction, 0.0);
  EXPECT_LE(report.serial_fraction, 1.0);
  EXPECT_FALSE(report.rounds.empty());
  EXPECT_EQ(report.flow_begins, report.flow_ends);
}

// Each worker's registry reaches rank 0 in its final telemetry frame — the
// only channel for per-worker totals, on the thread backend as on sockets.
TEST(Obs, WorkerTotalsReachRankZeroByTelemetry) {
  ObsFixture fx;
  SearchOptions options;
  options.seed = 5;
  ClusterOptions cluster_options;
  cluster_options.num_workers = 2;
  InProcessCluster cluster(fx.data, SubstModel::jc69(), RateModel::uniform(),
                           cluster_options);
  StepwiseSearch(fx.data, options).run(cluster.runner());
  cluster.shutdown();

  const ForemanStats& stats = cluster.foreman_stats();
  const std::vector<obs::RankTelemetry> rows = cluster.telemetry().ranks();
  ASSERT_EQ(rows.size(), 2u);
  std::uint64_t tasks = 0;
  for (const obs::RankTelemetry& row : rows) {
    EXPECT_GE(row.rank, kFirstWorkerRank);
    EXPECT_GT(row.counter("kernel.clv_computations"), 0u) << "rank " << row.rank;
    EXPECT_GT(row.counter("kernel.edge_evaluations"), 0u) << "rank " << row.rank;
    tasks += row.counter("worker.tasks_evaluated");
    // The worker histogram is tasks per drained batch; edges per capture
    // (kernel.batch_fill) belongs to the process registry, not the frames.
    bool task_batch = false;
    for (const obs::HistogramDelta& h : row.histograms) {
      EXPECT_NE(h.name, "kernel.batch_fill") << "rank " << row.rank;
      if (h.name == "worker.task_batch" && h.count > 0) task_batch = true;
    }
    EXPECT_TRUE(task_batch) << "rank " << row.rank;
  }
  EXPECT_EQ(tasks, stats.tasks_completed);

  // Worker kernel work is not re-counted into the master/foreman registry.
  const obs::MetricsSnapshot snap = cluster.metrics_snapshot();
  EXPECT_EQ(snap.counter("kernel.clv_computations"), 0u);
  EXPECT_EQ(snap.counter("foreman.tasks_completed"), stats.tasks_completed);
}

// --- simulator trace emission ---

TEST(Obs, SimulatorTraceMatchesLiveVocabulary) {
  SearchTrace trace;
  trace.num_taxa = 8;
  for (int r = 0; r < 3; ++r) {
    RoundTrace round;
    round.kind = RoundKind::kInsertion;
    round.master_seconds = 0.01;
    for (int t = 0; t < 6; ++t) {
      round.task_cpu_seconds.push_back(0.05 + 0.01 * t);
      round.task_bytes.push_back(2048);
    }
    trace.rounds.push_back(round);
  }

  obs::TraceLog log;
  SimClusterConfig config;
  config.processors = 7;  // 4 workers
  config.trace = &log;
  const SimResult sim = simulate_trace(trace, config);

  const obs::TraceReport report = obs::analyze_trace(log);
  EXPECT_EQ(report.workers, 4);
  EXPECT_EQ(report.tasks, trace.total_tasks());
  EXPECT_EQ(report.rounds.size(), 3u);
  EXPECT_NEAR(report.busy_seconds, trace.total_task_seconds(), 1e-9);
  // Virtual wall and the analyzer's wall describe the same schedule.
  EXPECT_NEAR(report.wall_seconds, sim.wall_seconds,
              0.05 * sim.wall_seconds + 1e-9);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0 + 1e-9);
  EXPECT_EQ(report.flow_begins, report.flow_ends);

  // Round-trips through JSON like a live trace.
  std::ostringstream out;
  log.write_chrome(out);
  const obs::TraceLog loaded = obs::load_chrome_trace(out.str());
  EXPECT_EQ(loaded.events.size(), log.events.size());
}

// --- logging ---

TEST(Log, SinkCaptureAndPrefix) {
  std::vector<std::string> lines;
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  set_log_sink([&lines](LogLevel, const std::string& line) {
    lines.push_back(line);
  });
  set_log_thread_label("log-test");
  FDML_INFO("obs-test") << "hello " << 42;
  FDML_DEBUG("obs-test") << "below threshold";
  set_log_sink(nullptr);
  set_log_level(old_level);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("[info"), std::string::npos);
  EXPECT_NE(lines[0].find("log-test"), std::string::npos);
  EXPECT_NE(lines[0].find("obs-test: hello 42"), std::string::npos);
}

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("loud").has_value());
}

}  // namespace
}  // namespace fdml
