// The telemetry plane: frame codec, emitter deltas, aggregator math under
// hostile frame orderings, Prometheus exposition edge cases, rotating trace
// segments, and the wedged-server read deadline.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fdml.hpp"

namespace {

using namespace fdml;
using namespace fdml::obs;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Frame codec

TEST(TelemetryFrame, PackUnpackRoundTrips) {
  TelemetryFrame frame;
  frame.rank = 4;
  frame.incarnation = 0xABCDEF0123456789ull;
  frame.seq = 7;
  frame.counters["kernel.clv_computations"] = 120;
  frame.counters["worker.tasks_evaluated"] = 3;
  frame.gauges["queue.depth"] = -2;

  const TelemetryFrame decoded = TelemetryFrame::unpack(frame.pack());
  EXPECT_EQ(decoded.rank, 4);
  EXPECT_EQ(decoded.incarnation, frame.incarnation);
  EXPECT_EQ(decoded.seq, 7u);
  EXPECT_EQ(decoded.counters, frame.counters);
  EXPECT_EQ(decoded.gauges, frame.gauges);
}

TEST(TelemetryFrame, TruncatedPayloadThrowsInsteadOfOverReserving) {
  TelemetryFrame frame;
  frame.rank = 3;
  frame.seq = 1;
  for (int i = 0; i < 8; ++i) {
    frame.counters["c" + std::to_string(i)] = static_cast<std::uint64_t>(i);
  }
  std::vector<std::uint8_t> bytes = frame.pack();
  // Every truncation point must throw, never crash or allocate wildly off a
  // corrupt length prefix.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::uint8_t> clipped(bytes.begin(),
                                      bytes.begin() + static_cast<long>(cut));
    EXPECT_THROW(TelemetryFrame::unpack(clipped), std::exception) << cut;
  }
}

// ---------------------------------------------------------------------------
// Emitter deltas

TEST(TelemetryEmitter, ShipsDeltasNotTotals) {
  MetricsRegistry registry;
  TelemetryEmitter emitter(registry, 3);
  registry.counter("kernel.clv_computations").add(10);
  TelemetryFrame first = emitter.collect();
  EXPECT_EQ(first.rank, 3);
  EXPECT_EQ(first.seq, 1u);
  EXPECT_EQ(first.counters.at("kernel.clv_computations"), 10u);

  registry.counter("kernel.clv_computations").add(5);
  TelemetryFrame second = emitter.collect();
  EXPECT_EQ(second.seq, 2u);
  EXPECT_EQ(second.counters.at("kernel.clv_computations"), 5u);

  // Nothing changed: the frame is empty but still advances seq — it is the
  // liveness beacon that keeps an idle rank from reading as dead.
  TelemetryFrame idle = emitter.collect();
  EXPECT_EQ(idle.seq, 3u);
  EXPECT_TRUE(idle.counters.empty());
}

TEST(TelemetryEmitter, FreshEmitterGetsFreshIncarnation) {
  MetricsRegistry registry;
  TelemetryEmitter a(registry, 3);
  TelemetryEmitter b(registry, 3);
  EXPECT_NE(a.incarnation(), 0u);
  EXPECT_NE(a.incarnation(), b.incarnation());
}

// ---------------------------------------------------------------------------
// Aggregator delta math under out-of-order / duplicate / revival

TelemetryFrame make_frame(int rank, std::uint64_t incarnation,
                          std::uint64_t seq, std::uint64_t tasks) {
  TelemetryFrame frame;
  frame.rank = rank;
  frame.incarnation = incarnation;
  frame.seq = seq;
  if (tasks != 0) frame.counters["worker.tasks_evaluated"] = tasks;
  return frame;
}

TEST(TelemetryAggregator, SumsDeltasAndDropsReplays) {
  TelemetryAggregator agg;
  const auto now = Clock::now();
  EXPECT_EQ(agg.apply(make_frame(3, 77, 1, 10), now), TelemetryApply::kApplied);
  EXPECT_EQ(agg.apply(make_frame(3, 77, 2, 5), now), TelemetryApply::kApplied);
  // A retransmit of seq 2 must not double-count its delta.
  EXPECT_EQ(agg.apply(make_frame(3, 77, 2, 5), now),
            TelemetryApply::kDuplicate);
  // A late seq-1 frame arriving after seq 2 is a replay too.
  EXPECT_EQ(agg.apply(make_frame(3, 77, 1, 10), now),
            TelemetryApply::kOutOfOrder);

  const auto ranks = agg.ranks(now);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counters.at("worker.tasks_evaluated"), 15u);
  EXPECT_EQ(ranks[0].frames, 2u);
  EXPECT_EQ(ranks[0].duplicates, 1u);
  EXPECT_EQ(ranks[0].out_of_order, 1u);
  EXPECT_EQ(agg.frames_applied(), 2u);
  EXPECT_EQ(agg.frames_dropped(), 2u);
}

TEST(TelemetryAggregator, CountersStayMonotonicAcrossRevival) {
  // A foreman dies after shipping 10 tasks and its replacement ships 4
  // more under a new incarnation: the rank total must be 14, never reset.
  TelemetryAggregator agg;
  const auto now = Clock::now();
  agg.apply(make_frame(1, 100, 1, 6), now);
  agg.apply(make_frame(1, 100, 2, 4), now);
  // Revival: new incarnation, sequence space restarts at 1 — NOT out of
  // order.
  EXPECT_EQ(agg.apply(make_frame(1, 200, 1, 3), now),
            TelemetryApply::kApplied);
  agg.apply(make_frame(1, 200, 2, 1), now);

  const auto ranks = agg.ranks(now);
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_EQ(ranks[0].counters.at("worker.tasks_evaluated"), 14u);
  EXPECT_EQ(ranks[0].incarnations, 1u);
}

TEST(TelemetryAggregator, DeadRankIsMarkedStaleNotFrozen) {
  TelemetryAggregatorOptions options;
  options.stale_after = std::chrono::milliseconds(500);
  TelemetryAggregator agg(options);
  const auto t0 = Clock::now();
  agg.apply(make_frame(4, 9, 1, 2), t0);
  agg.apply(make_frame(5, 9, 1, 2), t0);
  // Rank 5 keeps reporting; rank 4 goes silent.
  const auto t1 = t0 + std::chrono::milliseconds(600);
  agg.apply(make_frame(5, 9, 2, 1), t1);

  const auto ranks = agg.ranks(t1);
  ASSERT_EQ(ranks.size(), 2u);
  EXPECT_EQ(ranks[0].rank, 4);
  EXPECT_TRUE(ranks[0].stale);
  EXPECT_GE(ranks[0].age_ms, 500);
  EXPECT_FALSE(ranks[1].stale);
  // Stale, not erased: the totals survive for the post-mortem.
  EXPECT_EQ(ranks[0].counters.at("worker.tasks_evaluated"), 2u);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(prometheus_name("kernel.clv_computations"),
            "kernel_clv_computations");
  EXPECT_EQ(prometheus_name("job.3.attempts"), "job_3_attempts");
  EXPECT_EQ(prometheus_name("weird-char%"), "weird_char_");
  // A leading digit is invalid in the exposition grammar.
  EXPECT_EQ(prometheus_name("7zip"), "_7zip");
  EXPECT_EQ(prometheus_name("ok:colon_name"), "ok:colon_name");
}

TEST(Prometheus, LabelEscaping) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\"b"), "a\\\"b");
  EXPECT_EQ(prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label("a\nb"), "a\\nb");
}

TEST(Prometheus, SnapshotHistogramEndsAtInf) {
  MetricsRegistry registry;
  auto& h = registry.histogram("test.sizes", {1, 2, 4});
  h.observe(1);
  h.observe(3);
  h.observe(100);  // overflow bucket
  const std::string text = to_prometheus(registry.snapshot(), "fdml_", "");
  // Cumulative buckets: le="1" 1, le="2" 1, le="4" 2, le="+Inf" 3.
  EXPECT_NE(text.find("fdml_test_sizes_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_test_sizes_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_test_sizes_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_test_sizes_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("fdml_test_sizes_sum"), std::string::npos);
}

TEST(Prometheus, SnapshotAttachesLabelsToEverySample) {
  MetricsRegistry registry;
  registry.counter("worker.tasks_evaluated").add(9);
  registry.histogram("lat", {1.0}).observe(0.5);
  const std::string text =
      to_prometheus(registry.snapshot(), "fdml_", "rank=\"0\"");
  EXPECT_NE(text.find("fdml_worker_tasks_evaluated{rank=\"0\"} 9\n"),
            std::string::npos);
  // Histogram rows merge the shared labels with the le label.
  EXPECT_NE(text.find("fdml_lat_bucket{rank=\"0\",le=\"+Inf\"} 1\n"),
            std::string::npos);
}

TEST(Prometheus, AggregatorExposesPerRankAndLivenessSeries) {
  TelemetryAggregatorOptions options;
  options.stale_after = std::chrono::milliseconds(100);
  TelemetryAggregator agg(options);
  const auto t0 = Clock::now();
  agg.apply(make_frame(3, 1, 1, 4), t0);
  const auto later = t0 + std::chrono::milliseconds(250);
  const std::string text = to_prometheus(agg, later);
  EXPECT_NE(text.find("fdml_worker_tasks_evaluated{rank=\"3\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_rank_stale{rank=\"3\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fdml_telemetry_frames_applied 1\n"),
            std::string::npos);
}

TEST(Prometheus, JobProgressSeries) {
  JobProgressRow row;
  row.job_id = 2;
  row.phase = "rearrange";
  row.taxa_in_tree = 9;
  row.round = 12;
  row.tasks_done = 30;
  row.tasks_total = 44;
  row.best_log_likelihood = -1234.5;
  row.has_best = true;
  row.checkpoint_generation = 3;
  const std::string text = to_prometheus(std::vector<JobProgressRow>{row});
  EXPECT_NE(text.find("fdml_job_phase{job=\"2\",phase=\"rearrange\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_job_tasks_done{job=\"2\"} 30\n"),
            std::string::npos);
  EXPECT_NE(text.find("fdml_job_best_log_likelihood{job=\"2\"} -1234.5\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rotating trace segments (satellite: drops surface in obs.trace_dropped)

class SegmentDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fdml-seg-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    Tracer::instance().enable();
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::instance().disable();
    Tracer::instance().reset();
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

TEST_F(SegmentDir, RotatesWritesAndStitches) {
  TraceSegmentOptions options;
  options.max_segment_bytes = 2048;  // tiny: force several rotations
  options.max_segments = 64;
  TraceSegmentWriter writer(dir_.string(), options);
  writer.start();
  std::size_t emitted = 0;
  for (int burst = 0; burst < 6; ++burst) {
    for (int i = 0; i < 200; ++i) {
      instant("test", "tick", "i", i);
      ++emitted;
    }
    writer.flush_now();
  }
  writer.stop();
  EXPECT_GE(writer.segments_written(), 2u);
  EXPECT_EQ(writer.dropped_seen(), 0u);

  // Each segment must be an independently valid Chrome trace, and the
  // stitched set must contain every emitted event exactly once.
  std::vector<TraceLog> logs;
  for (std::uint64_t i = 0; i < writer.segments_written(); ++i) {
    std::ifstream in(dir_ / ("segment-" + std::to_string(i) + ".json"));
    ASSERT_TRUE(in.good()) << "segment " << i;
    logs.push_back(load_chrome_trace(in));
  }
  const TraceLog merged = merge_trace_logs(logs);
  std::size_t ticks = 0;
  for (const auto& event : merged.events) {
    if (event.name == "tick") ++ticks;
  }
  EXPECT_EQ(ticks, emitted);
  // Stitching preserves time order.
  for (std::size_t i = 1; i < merged.events.size(); ++i) {
    EXPECT_LE(merged.events[i - 1].ts_ns, merged.events[i].ts_ns);
  }
}

TEST_F(SegmentDir, RetentionPrunesOldestSegments) {
  TraceSegmentOptions options;
  options.max_segment_bytes = 512;
  options.max_segments = 2;
  TraceSegmentWriter writer(dir_.string(), options);
  writer.start();
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 200; ++i) instant("test", "tick", "i", i);
    writer.flush_now();
  }
  writer.stop();
  ASSERT_GE(writer.segments_written(), 3u);
  std::size_t on_disk = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++on_disk;
  }
  EXPECT_LE(on_disk, options.max_segments);
  // segment-0 was pruned; the newest survives.
  EXPECT_FALSE(std::filesystem::exists(dir_ / "segment-0.json"));
  EXPECT_TRUE(std::filesystem::exists(
      dir_ / ("segment-" + std::to_string(writer.segments_written() - 1) +
              ".json")));
}

TEST_F(SegmentDir, RingOverflowSurfacesInDroppedCounter) {
  // Tiny rings so a burst overflows; the flush must surface the drops in
  // the obs.trace_dropped counter instead of losing them silently.
  Tracer::instance().enable(64);
  const std::uint64_t before =
      MetricsRegistry::process().snapshot().counter("obs.trace_dropped");
  for (int i = 0; i < 5000; ++i) instant("test", "flood", "i", i);
  TraceSegmentWriter writer(dir_.string(), {});
  writer.start();
  writer.flush_now();
  writer.stop();
  EXPECT_GT(writer.dropped_seen(), 0u);
  const std::uint64_t after =
      MetricsRegistry::process().snapshot().counter("obs.trace_dropped");
  EXPECT_EQ(after - before, writer.dropped_seen());
}

// ---------------------------------------------------------------------------
// Wedged-server read deadline (satellite: clients must not block forever)

TEST(ServiceTimeout, WedgedServerRaisesTimeoutNotHang) {
  // A listener that accepts and then never replies — the exact failure mode
  // that used to wedge `fdmld submit` forever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    while (!stop.load()) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) break;
      // Read the request so the client's send succeeds, then go mute.
      char sink[4096];
      while (::recv(fd, sink, sizeof sink, MSG_DONTWAIT) > 0) {
      }
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ::close(fd);
    }
  });

  const auto t0 = Clock::now();
  bool timed_out = false;
  try {
    service_scrape("127.0.0.1", port, std::chrono::milliseconds(300));
  } catch (const ServiceTimeoutError& error) {
    timed_out = true;
    EXPECT_NE(std::string(error.what()).find("timed out"), std::string::npos);
    EXPECT_EQ(error.timeout(), std::chrono::milliseconds(300));
  }
  const auto elapsed = Clock::now() - t0;
  EXPECT_TRUE(timed_out);
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  stop.store(true);
  ::shutdown(listener, SHUT_RDWR);
  ::close(listener);
  acceptor.join();
}

}  // namespace
