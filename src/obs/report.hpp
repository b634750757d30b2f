// Report generator: turns a TraceLog (live drain, loaded Chrome JSON, or
// simulator replay) into the paper's tables — per-worker utilization
// timeline, serial fraction, queue depth over time, per-round slack, task
// time histograms, and speedup/efficiency against a baseline run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace fdml::obs {

struct WorkerRow {
  int tid = 0;
  std::string name;
  double busy_seconds = 0.0;
  std::uint64_t tasks = 0;
  double utilization = 0.0;          // busy / wall
  std::vector<double> timeline;      // busy fraction per time bin
};

struct RoundRow {
  std::int64_t round_id = 0;
  double begin_seconds = 0.0;        // relative to trace start
  double duration_seconds = 0.0;
  std::uint64_t tasks = 0;           // task executions ending in the window
  double slack_seconds = 0.0;        // barrier slack: spread of last per-worker finishes
};

struct TraceReport {
  double wall_seconds = 0.0;
  int workers = 0;
  std::uint64_t tasks = 0;
  double busy_seconds = 0.0;         // sum of worker task-span time
  double covered_seconds = 0.0;      // union of worker busy intervals
  double serial_fraction = 0.0;      // 1 - covered / wall
  double utilization = 0.0;          // busy / (wall * workers)
  double mean_task_seconds = 0.0;

  std::vector<WorkerRow> per_worker;
  std::vector<RoundRow> rounds;

  double bin_seconds = 0.0;
  std::vector<double> utilization_bins;  // all-worker busy fraction per bin

  double mean_queue_depth = 0.0;     // time-weighted
  std::int64_t max_queue_depth = 0;

  std::vector<double> task_hist_bounds;     // seconds, ascending
  std::vector<std::uint64_t> task_hist;     // bounds.size() + 1 (overflow)

  std::uint64_t flow_begins = 0;
  std::uint64_t flow_steps = 0;
  std::uint64_t flow_ends = 0;
  std::uint64_t dropped_events = 0;
};

/// Computes the report. `bins` is the timeline resolution.
TraceReport analyze_trace(const TraceLog& log, int bins = 24);

/// Human-readable report (the paper-style tables).
std::string render_report(const TraceReport& report);

/// Speedup/efficiency of `run` against a (typically 1-worker) baseline.
struct ScalingRow {
  int workers = 0;
  double baseline_wall_seconds = 0.0;
  double wall_seconds = 0.0;
  double speedup = 0.0;              // baseline wall / run wall
  double efficiency = 0.0;           // speedup / workers
};

ScalingRow scaling_row(const TraceReport& baseline, const TraceReport& run);
std::string render_scaling(const ScalingRow& row);

/// Parses Chrome trace_event JSON (the dialect TraceLog::write_chrome
/// emits; tolerant of extra fields). Throws std::runtime_error on malformed
/// input.
TraceLog load_chrome_trace(std::istream& in);
TraceLog load_chrome_trace(const std::string& text);

/// Stitches rotated trace segments (obs/segment.hpp) back into one
/// timeline: thread tables union by tid (first name wins), events
/// concatenate and re-sort, drop counts sum. Segments share one process's
/// monotonic clock, so timestamps interleave correctly in order.
TraceLog merge_trace_logs(const std::vector<TraceLog>& logs);

}  // namespace fdml::obs
