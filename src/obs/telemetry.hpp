// The live telemetry plane (DESIGN.md §5i).
//
// Long fdmld runs host many concurrent searches for days; the hub
// process's own registry sees none of the other ranks' work. This module
// carries every rank's counters and gauges to rank 0 — the run's one
// accounting channel — and makes the cluster observable *while it runs*:
//
//   - TelemetryEmitter: each rank periodically snapshots its local
//     MetricsRegistry, diffs its counters against the previous snapshot,
//     and ships the delta as a TelemetryFrame (kTelemetry on the fabric).
//     Deltas keep frames small and make rank-0 totals additive across
//     emitter incarnations — a restarted worker process restarts its
//     sequence under a fresh incarnation id and the aggregate stays
//     monotonic. Registry
//     histograms are not shipped; the hub renders its own as rank 0.
//   - TelemetryAggregator (rank 0): per-rank cumulative totals with
//     last-update staleness (a dead rank's series is *marked* stale, never
//     silently frozen) and duplicate/out-of-order frame rejection.
//   - Prometheus text exposition: the aggregate, a raw MetricsSnapshot, and
//     per-job progress all render to the standard text format
//     (`fdmld --mode=scrape`, kMetricsQuery over the service wire).
//
// Layering: this lives in obs (below comm), so the codec speaks
// util/packer.hpp byte vectors; the kTelemetry tag and payload sealing
// belong to the call sites in parallel/ and service/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/packer.hpp"

namespace fdml::obs {

/// One periodic per-rank metrics delta. Counters are increments since the
/// previous frame; gauges are absolute (last-writer-wins).
struct TelemetryFrame {
  int rank = -1;
  /// Random per-emitter id: a restarted rank gets a new incarnation, which
  /// tells the aggregator "fresh sequence space", not "out of order".
  std::uint64_t incarnation = 0;
  /// 1-based, strictly increasing within an incarnation.
  std::uint64_t seq = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;

  std::vector<std::uint8_t> pack() const;
  static TelemetryFrame unpack(Unpacker& in);
  static TelemetryFrame unpack(const std::vector<std::uint8_t>& payload);
};

/// Periodic delta producer over one rank's registry. Not thread-safe; owned
/// by the role loop that calls collect().
class TelemetryEmitter {
 public:
  /// `registry` must outlive the emitter.
  TelemetryEmitter(MetricsRegistry& registry, int rank);

  /// Snapshot, diff against the previous snapshot, return the delta frame.
  /// Frames with nothing changed still carry the next seq (they double as
  /// liveness beacons — an idle rank must not read as a dead one).
  TelemetryFrame collect();

  std::uint64_t incarnation() const { return incarnation_; }

 private:
  MetricsRegistry& registry_;
  int rank_;
  std::uint64_t incarnation_;
  std::uint64_t next_seq_ = 1;
  MetricsSnapshot last_;
};

struct TelemetryAggregatorOptions {
  /// A rank whose newest frame is older than this is reported stale.
  std::chrono::milliseconds stale_after{2000};
};

/// What apply() decided about a frame.
enum class TelemetryApply {
  kApplied,
  kDuplicate,    ///< seq already seen for this incarnation
  kOutOfOrder,   ///< seq below the newest applied (delta dropped, counted)
};

/// Per-rank cumulative state as the exposition sees it.
struct RankTelemetry {
  int rank = -1;
  std::uint64_t incarnation = 0;
  std::uint64_t last_seq = 0;
  std::uint64_t frames = 0;
  /// Frames from prior incarnations of this rank (revivals/restarts).
  std::uint64_t incarnations = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_order = 0;
  bool stale = false;
  /// Milliseconds since the newest applied frame.
  std::int64_t age_ms = 0;
  std::map<std::string, std::uint64_t> counters;  // summed deltas
  std::map<std::string, std::int64_t> gauges;     // newest values

  /// Summed counter by name; 0 when the rank never reported it.
  std::uint64_t counter(std::string_view name) const;
};

/// Rank-0 aggregation of TelemetryFrames. Thread-safe: the fabric pump
/// applies frames while scrape handlers render.
class TelemetryAggregator {
 public:
  explicit TelemetryAggregator(TelemetryAggregatorOptions options = {});

  TelemetryApply apply(const TelemetryFrame& frame,
                       std::chrono::steady_clock::time_point now =
                           std::chrono::steady_clock::now());

  /// Per-rank state with staleness evaluated at `now`, rank-ordered.
  std::vector<RankTelemetry> ranks(std::chrono::steady_clock::time_point now =
                                       std::chrono::steady_clock::now()) const;

  std::uint64_t frames_applied() const;
  std::uint64_t frames_dropped() const;  // duplicates + out-of-order

  const TelemetryAggregatorOptions& options() const { return options_; }

 private:
  struct RankState {
    std::uint64_t incarnation = 0;
    std::uint64_t last_seq = 0;
    std::uint64_t frames = 0;
    std::uint64_t incarnations = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t out_of_order = 0;
    std::chrono::steady_clock::time_point last_update{};
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
  };

  TelemetryAggregatorOptions options_;
  mutable std::mutex mutex_;
  std::map<int, RankState> ranks_;
  std::uint64_t applied_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Per-job search progress as the exposition reports it (filled by the
/// scheduler from its ProgressProbes).
struct JobProgressRow {
  std::uint64_t job_id = 0;
  /// "addition" | "rearrange" | "idle" (not yet started).
  std::string phase;
  int taxa_in_tree = 0;
  int round = 0;
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_total = 0;
  double best_log_likelihood = 0.0;
  bool has_best = false;
  std::uint64_t checkpoint_generation = 0;
};

/// --- Prometheus text exposition ---------------------------------------

/// Sanitizes to [a-zA-Z_:][a-zA-Z0-9_:]* ('.' and any other invalid byte
/// become '_'; a leading digit gets a '_' prefix).
std::string prometheus_name(std::string_view raw);

/// Escapes a label value per the text format: backslash, double quote and
/// newline.
std::string prometheus_escape_label(std::string_view raw);

/// Renders one process-local snapshot. Metric names get `prefix` + the
/// sanitized name; histograms emit cumulative `_bucket{le=...}` rows ending
/// in `+Inf`, plus `_sum` and `_count`. `labels` (e.g. `rank="0"`) is
/// attached verbatim to every sample; pass "" for none.
std::string to_prometheus(const MetricsSnapshot& snapshot,
                          const std::string& prefix = "fdml_",
                          const std::string& labels = "");

/// Renders the cluster aggregate: per-rank counter and gauge series
/// labelled {rank="N"}, plus fdml_rank_stale / fdml_rank_age_ms /
/// fdml_rank_frames liveness series and fdml_telemetry_* aggregator
/// counters.
std::string to_prometheus(const TelemetryAggregator& aggregator,
                          std::chrono::steady_clock::time_point now =
                              std::chrono::steady_clock::now());

/// Renders per-job progress series labelled {job="N"}.
std::string to_prometheus(const std::vector<JobProgressRow>& jobs);

}  // namespace fdml::obs
