// Rotating trace segments: traces that survive long service lifetimes.
//
// The one-shot dump-at-exit model (drain once, write one JSON file) cannot
// serve a week-long fdmld process — either the rings are sized for the whole
// run (OOM) or sized sanely and everything before the tail is lost. The
// TraceSegmentWriter instead drains the process tracer on a short period,
// appends into the current segment, and rotates to a new size-capped
// `segment-<N>.json` when the cap is hit. Each segment is a complete,
// independently loadable Chrome trace (written to a temp name, fsync'd, then
// renamed into place so a crash never leaves a torn segment visible), and
// retention is bounded: the oldest segments are pruned past `max_segments`.
// trace_report stitches a segment directory back into one timeline.
//
// Layering: obs sits below durable, so this writes with direct POSIX I/O
// rather than the Vfs seam.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/trace.hpp"

namespace fdml::obs {

struct TraceSegmentOptions {
  /// Rotate once the current segment's serialized size reaches this.
  std::size_t max_segment_bytes = 4u << 20;
  /// Keep at most this many segments on disk (oldest pruned first).
  std::size_t max_segments = 16;
};

/// Background writer draining Tracer::instance() into rotating segments
/// under `dir` every 500 ms. start() spawns the thread; stop() (or
/// destruction) drains one final time and writes the trailing partial
/// segment.
class TraceSegmentWriter {
 public:
  TraceSegmentWriter(std::string dir, TraceSegmentOptions options = {});
  ~TraceSegmentWriter();

  TraceSegmentWriter(const TraceSegmentWriter&) = delete;
  TraceSegmentWriter& operator=(const TraceSegmentWriter&) = delete;

  /// Creates `dir` if needed and spawns the flush thread. Throws on I/O
  /// failure creating the directory.
  void start();

  /// Final drain + flush, then joins the thread. Idempotent.
  void stop();

  /// Segments written so far (monotonic; pruned segments still count).
  std::uint64_t segments_written() const;

  /// Ring-overflow drops observed across all drains (mirrors the
  /// obs.trace_dropped counter).
  std::uint64_t dropped_seen() const;

  /// One synchronous drain+append (the flush thread's body; exposed so
  /// tests can drive rotation deterministically without sleeping).
  void flush_now();

 private:
  void run();
  void append(TraceLog&& drained);
  void rotate_locked();
  void prune_locked();
  std::string segment_path(std::uint64_t index) const;

  std::string dir_;
  TraceSegmentOptions options_;

  mutable std::mutex mutex_;
  TraceLog pending_;            // events accumulated for the current segment
  std::size_t pending_bytes_ = 0;
  std::uint64_t next_index_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t dropped_seen_ = 0;

  std::thread thread_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
};

}  // namespace fdml::obs
