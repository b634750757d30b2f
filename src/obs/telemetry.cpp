#include "obs/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>

namespace fdml::obs {

namespace {

// Formats a double the way the Prometheus text format expects: shortest
// round-trip decimal, never locale-dependent.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint64_t fresh_incarnation(int rank) {
  // Uniqueness across restarts of the same rank is what matters; mixing a
  // monotonic per-process counter with the boot-relative clock makes a
  // revived role's id differ from its predecessor even across a fast
  // exec-respawn on the same host.
  static std::atomic<std::uint64_t> ordinal{0};
  const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
  std::uint64_t id = static_cast<std::uint64_t>(now);
  id ^= ordinal.fetch_add(1, std::memory_order_relaxed) << 48;
  id ^= static_cast<std::uint64_t>(rank) << 40;
  return id == 0 ? 1 : id;
}

}  // namespace

// --- TelemetryFrame codec -------------------------------------------------

std::vector<std::uint8_t> TelemetryFrame::pack() const {
  Packer out;
  out.put_i32(rank);
  out.put_u64(incarnation);
  out.put_u64(seq);
  out.put_u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    out.put_string(name);
    out.put_u64(value);
  }
  out.put_u32(static_cast<std::uint32_t>(gauges.size()));
  for (const auto& [name, value] : gauges) {
    out.put_string(name);
    out.put_i64(value);
  }
  return out.take();
}

TelemetryFrame TelemetryFrame::unpack(Unpacker& in) {
  TelemetryFrame frame;
  frame.rank = in.get_i32();
  frame.incarnation = in.get_u64();
  frame.seq = in.get_u64();

  const std::uint32_t n_counters = in.get_u32();
  // Each entry is at least a string length prefix (4) + a u64 (8).
  in.require_count(n_counters, 12);
  for (std::uint32_t i = 0; i < n_counters; ++i) {
    std::string name = in.get_string();
    frame.counters[std::move(name)] = in.get_u64();
  }

  const std::uint32_t n_gauges = in.get_u32();
  in.require_count(n_gauges, 12);
  for (std::uint32_t i = 0; i < n_gauges; ++i) {
    std::string name = in.get_string();
    frame.gauges[std::move(name)] = in.get_i64();
  }
  return frame;
}

// --- TelemetryEmitter -----------------------------------------------------

TelemetryEmitter::TelemetryEmitter(MetricsRegistry& registry, int rank)
    : registry_(registry), rank_(rank), incarnation_(fresh_incarnation(rank)) {}

TelemetryFrame TelemetryEmitter::collect() {
  MetricsSnapshot now = registry_.snapshot();

  TelemetryFrame frame;
  frame.rank = rank_;
  frame.incarnation = incarnation_;
  frame.seq = next_seq_++;

  for (const auto& [name, value] : now.counters) {
    const auto it = last_.counters.find(name);
    const std::uint64_t prev = it == last_.counters.end() ? 0 : it->second;
    if (value > prev) frame.counters[name] = value - prev;
  }
  // Gauges ship absolute: a delta of a point-in-time value is meaningless.
  frame.gauges = now.gauges;

  last_ = std::move(now);
  return frame;
}

// --- TelemetryAggregator --------------------------------------------------

TelemetryAggregator::TelemetryAggregator(TelemetryAggregatorOptions options)
    : options_(options) {}

TelemetryApply TelemetryAggregator::apply(
    const TelemetryFrame& frame, std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mutex_);
  RankState& state = ranks_[frame.rank];

  if (state.incarnation != frame.incarnation) {
    // A fresh incarnation (revived role, brand-new registry) restarts the
    // sequence space but keeps ADDING to the rank's totals — the aggregate
    // stays monotonic across revival, which is what Prometheus counters
    // promise.
    if (state.incarnation != 0) ++state.incarnations;
    state.incarnation = frame.incarnation;
    state.last_seq = 0;
  } else if (frame.seq == state.last_seq) {
    ++state.duplicates;
    ++dropped_;
    return TelemetryApply::kDuplicate;
  } else if (frame.seq < state.last_seq) {
    ++state.out_of_order;
    ++dropped_;
    return TelemetryApply::kOutOfOrder;
  }

  state.last_seq = frame.seq;
  ++state.frames;
  state.last_update = now;
  ++applied_;

  for (const auto& [name, delta] : frame.counters) state.counters[name] += delta;
  for (const auto& [name, value] : frame.gauges) state.gauges[name] = value;
  return TelemetryApply::kApplied;
}

std::uint64_t RankTelemetry::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

std::vector<RankTelemetry> TelemetryAggregator::ranks(
    std::chrono::steady_clock::time_point now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RankTelemetry> out;
  out.reserve(ranks_.size());
  for (const auto& [rank, state] : ranks_) {
    RankTelemetry row;
    row.rank = rank;
    row.incarnation = state.incarnation;
    row.last_seq = state.last_seq;
    row.frames = state.frames;
    row.incarnations = state.incarnations;
    row.duplicates = state.duplicates;
    row.out_of_order = state.out_of_order;
    const auto age = now - state.last_update;
    row.age_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
    row.stale = age > options_.stale_after;
    row.counters = state.counters;
    row.gauges = state.gauges;
    out.push_back(std::move(row));
  }
  return out;
}

std::uint64_t TelemetryAggregator::frames_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_;
}

std::uint64_t TelemetryAggregator::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

// --- Prometheus text exposition -------------------------------------------

std::string prometheus_name(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 1);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_' || c == ':') {
      out.push_back(c);
    } else if (digit) {
      if (i == 0) out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string prometheus_escape_label(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string braced(const std::string& labels) {
  return labels.empty() ? std::string() : "{" + labels + "}";
}

void render_histogram(std::ostringstream& out, const std::string& name,
                      const std::string& labels,
                      const std::vector<double>& bounds,
                      const std::vector<std::uint64_t>& buckets,
                      std::uint64_t count, double sum) {
  // Buckets are stored disjoint; the text format wants cumulative counts
  // ending in the catch-all +Inf bucket.
  std::uint64_t cumulative = 0;
  const std::string sep = labels.empty() ? "" : ",";
  for (std::size_t i = 0; i < bounds.size() && i < buckets.size(); ++i) {
    cumulative += buckets[i];
    out << name << "_bucket{" << labels << sep
        << "le=\"" << format_double(bounds[i]) << "\"} " << cumulative << "\n";
  }
  out << name << "_bucket{" << labels << sep << "le=\"+Inf\"} " << count
      << "\n";
  out << name << "_sum" << braced(labels) << " " << format_double(sum) << "\n";
  out << name << "_count" << braced(labels) << " " << count << "\n";
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snapshot,
                          const std::string& prefix,
                          const std::string& labels) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    out << prefix << prometheus_name(name) << braced(labels) << " " << value
        << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    out << prefix << prometheus_name(name) << braced(labels) << " " << value
        << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    render_histogram(out, prefix + prometheus_name(h.name), labels, h.bounds,
                     h.buckets, h.count, h.sum);
  }
  return out.str();
}

std::string to_prometheus(const TelemetryAggregator& aggregator,
                          std::chrono::steady_clock::time_point now) {
  std::ostringstream out;
  const auto ranks = aggregator.ranks(now);
  for (const auto& row : ranks) {
    const std::string labels = "rank=\"" + std::to_string(row.rank) + "\"";
    out << "fdml_rank_stale{" << labels << "} " << (row.stale ? 1 : 0) << "\n";
    out << "fdml_rank_age_ms{" << labels << "} " << row.age_ms << "\n";
    out << "fdml_rank_frames{" << labels << "} " << row.frames << "\n";
    out << "fdml_rank_incarnations{" << labels << "} " << row.incarnations
        << "\n";
    for (const auto& [name, value] : row.counters) {
      out << "fdml_" << prometheus_name(name) << "{" << labels << "} " << value
          << "\n";
    }
    for (const auto& [name, value] : row.gauges) {
      out << "fdml_" << prometheus_name(name) << "{" << labels << "} " << value
          << "\n";
    }
  }
  out << "fdml_telemetry_frames_applied " << aggregator.frames_applied()
      << "\n";
  out << "fdml_telemetry_frames_dropped " << aggregator.frames_dropped()
      << "\n";
  return out.str();
}

std::string to_prometheus(const std::vector<JobProgressRow>& jobs) {
  std::ostringstream out;
  for (const auto& job : jobs) {
    const std::string labels = "job=\"" + std::to_string(job.job_id) + "\"";
    out << "fdml_job_phase{" << labels << ",phase=\""
        << prometheus_escape_label(job.phase) << "\"} 1\n";
    out << "fdml_job_taxa_in_tree{" << labels << "} " << job.taxa_in_tree
        << "\n";
    out << "fdml_job_round{" << labels << "} " << job.round << "\n";
    out << "fdml_job_tasks_done{" << labels << "} " << job.tasks_done << "\n";
    out << "fdml_job_tasks_total{" << labels << "} " << job.tasks_total
        << "\n";
    if (job.has_best) {
      out << "fdml_job_best_log_likelihood{" << labels << "} "
          << format_double(job.best_log_likelihood) << "\n";
    }
    out << "fdml_job_checkpoint_generation{" << labels << "} "
        << job.checkpoint_generation << "\n";
  }
  return out.str();
}

}  // namespace fdml::obs
