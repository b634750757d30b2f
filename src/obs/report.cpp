#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace fdml::obs {

namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser: just enough for the trace dialect
// we emit (objects, arrays, strings with escapes, numbers, true/false/null).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = object.find(std::string(key));
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("trace JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    v.boolean = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // We only ever emit \u00xx control escapes; anything wider is
          // replaced rather than UTF-8 encoded.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = value;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

double number_or(const JsonValue* v, double fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kNumber) ? v->number
                                                               : fallback;
}

std::string string_or(const JsonValue* v, std::string fallback) {
  return (v != nullptr && v->kind == JsonValue::Kind::kString) ? v->string
                                                               : fallback;
}

std::uint64_t parse_flow_id(const JsonValue* v) {
  if (v == nullptr) return 0;
  if (v->kind == JsonValue::Kind::kNumber) {
    return static_cast<std::uint64_t>(v->number);
  }
  if (v->kind == JsonValue::Kind::kString) {
    return std::strtoull(v->string.c_str(), nullptr, 0);  // handles 0x...
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Analysis helpers
// ---------------------------------------------------------------------------

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

double union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0.0;
  double cur_begin = 0.0;
  double cur_end = -std::numeric_limits<double>::infinity();
  for (const Interval& iv : intervals) {
    if (iv.begin > cur_end) {
      if (cur_end > cur_begin) total += cur_end - cur_begin;
      cur_begin = iv.begin;
      cur_end = iv.end;
    } else {
      cur_end = std::max(cur_end, iv.end);
    }
  }
  if (cur_end > cur_begin) total += cur_end - cur_begin;
  return total;
}

/// Overlap of [begin,end) with time bin `b` of width `bin` starting at `t0`.
double bin_overlap(const Interval& iv, double t0, double bin, int b) {
  const double lo = t0 + bin * b;
  const double hi = lo + bin;
  return std::max(0.0, std::min(iv.end, hi) - std::max(iv.begin, lo));
}

std::optional<std::int64_t> event_arg(const LogEvent& e,
                                      std::string_view name) {
  if (e.arg0_name == name) return e.arg0;
  if (e.arg1_name == name) return e.arg1;
  return std::nullopt;
}

bool is_worker_task_span(const LogEvent& e) {
  return e.cat == "worker" && e.name == "task";
}

const char* util_ramp(double frac) {
  static const char* kRamp[] = {" ", ".", ":", "-", "=", "+", "*", "#", "%", "@"};
  int idx = static_cast<int>(std::lround(frac * 9.0));
  idx = std::clamp(idx, 0, 9);
  return kRamp[idx];
}

std::string format_seconds(double s) {
  char buf[48];
  if (s < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  } else if (s < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  }
  return buf;
}

}  // namespace

TraceLog load_chrome_trace(const std::string& text) {
  JsonParser parser(text);
  const JsonValue root = parser.parse();
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    throw std::runtime_error("trace JSON has no traceEvents array");
  }
  TraceLog log;
  for (const JsonValue& ev : events->array) {
    if (ev.kind != JsonValue::Kind::kObject) {
      throw std::runtime_error("traceEvents entry is not an object");
    }
    const std::string ph = string_or(ev.find("ph"), "");
    const int tid = static_cast<int>(number_or(ev.find("tid"), 0));
    const std::string name = string_or(ev.find("name"), "");
    if (ph == "M") {
      if (name == "thread_name") {
        const JsonValue* args = ev.find("args");
        log.set_thread(tid, args ? string_or(args->find("name"), "") : "");
      }
      continue;
    }
    if (ph.size() != 1) continue;
    const char p = ph[0];
    if (p != 'B' && p != 'E' && p != 'i' && p != 's' && p != 't' && p != 'f' &&
        p != 'C') {
      continue;  // tolerate phases we never emit (X, counters from other tools)
    }
    const double ts_us = number_or(ev.find("ts"), 0.0);
    LogEvent& out =
        log.add(tid, static_cast<Phase>(p), ts_us * 1000.0,
                string_or(ev.find("cat"), ""), name,
                parse_flow_id(ev.find("id")));
    if (const JsonValue* args = ev.find("args");
        args != nullptr && args->kind == JsonValue::Kind::kObject) {
      int slot = 0;
      for (const auto& [key, value] : args->object) {
        if (value.kind != JsonValue::Kind::kNumber) continue;
        if (slot == 0) {
          out.arg0_name = key;
          out.arg0 = static_cast<std::int64_t>(value.number);
        } else if (slot == 1) {
          out.arg1_name = key;
          out.arg1 = static_cast<std::int64_t>(value.number);
        }
        ++slot;
      }
    }
  }
  if (const JsonValue* other = root.find("otherData")) {
    log.dropped_events =
        static_cast<std::uint64_t>(number_or(other->find("droppedEvents"), 0));
  }
  log.sort_events();
  return log;
}

TraceLog load_chrome_trace(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_chrome_trace(buffer.str());
}

TraceReport analyze_trace(const TraceLog& log, int bins) {
  TraceReport report;
  report.dropped_events = log.dropped_events;
  if (bins < 1) bins = 1;
  if (log.events.empty()) return report;

  double t0 = std::numeric_limits<double>::infinity();
  double t1 = -std::numeric_limits<double>::infinity();
  for (const LogEvent& e : log.events) {
    t0 = std::min(t0, e.ts_ns);
    t1 = std::max(t1, e.ts_ns);
  }
  const double wall_ns = std::max(t1 - t0, 1.0);
  report.wall_seconds = wall_ns * 1e-9;

  // Worker busy intervals from task execution spans.
  std::map<int, std::vector<Interval>> busy;
  std::map<int, std::vector<double>> open;
  std::map<int, std::uint64_t> tasks_by_tid;
  std::vector<double> task_seconds;

  // Queue depth: piecewise-constant between counter samples.
  double depth_integral_ns = 0.0;
  double depth_prev_ts = 0.0;
  std::int64_t depth_prev = 0;
  bool depth_seen = false;

  for (const LogEvent& e : log.events) {
    if (is_worker_task_span(e)) {
      if (e.ph == Phase::kBegin) {
        open[e.tid].push_back(e.ts_ns);
      } else if (e.ph == Phase::kEnd) {
        auto& stack = open[e.tid];
        if (!stack.empty()) {
          const double begin = stack.back();
          stack.pop_back();
          busy[e.tid].push_back({begin, e.ts_ns});
          ++tasks_by_tid[e.tid];
          task_seconds.push_back((e.ts_ns - begin) * 1e-9);
        }
      }
    } else if (e.cat == "flow") {
      if (e.ph == Phase::kFlowBegin) ++report.flow_begins;
      if (e.ph == Phase::kFlowStep) ++report.flow_steps;
      if (e.ph == Phase::kFlowEnd) ++report.flow_ends;
    } else if (e.ph == Phase::kCounter && e.name == "queue_depth") {
      const std::int64_t value = event_arg(e, "value").value_or(0);
      if (depth_seen) depth_integral_ns += depth_prev * (e.ts_ns - depth_prev_ts);
      depth_prev_ts = e.ts_ns;
      depth_prev = value;
      depth_seen = true;
      report.max_queue_depth = std::max(report.max_queue_depth, value);
    }
  }
  // Spans still open at trace end extend to the end of the trace.
  for (auto& [tid, stack] : open) {
    for (const double begin : stack) busy[tid].push_back({begin, t1});
  }
  if (depth_seen && t1 > depth_prev_ts) {
    depth_integral_ns += depth_prev * (t1 - depth_prev_ts);
  }
  if (depth_seen) report.mean_queue_depth = depth_integral_ns / wall_ns;

  // The worker population: threads with task spans plus threads named
  // worker-* (so an idle worker still lowers utilization).
  std::map<int, std::string> workers;
  for (const auto& [tid, intervals] : busy) {
    workers[tid] = "worker-?";
    (void)intervals;
  }
  for (const auto& [tid, name] : log.threads) {
    if (name.rfind("worker", 0) == 0) workers[tid] = name;
    else if (workers.count(tid)) workers[tid] = name;
  }
  report.workers = static_cast<int>(workers.size());

  const double bin_ns = wall_ns / bins;
  report.bin_seconds = bin_ns * 1e-9;
  report.utilization_bins.assign(static_cast<std::size_t>(bins), 0.0);

  std::vector<Interval> all_busy;
  for (const auto& [tid, name] : workers) {
    WorkerRow row;
    row.tid = tid;
    row.name = name;
    row.timeline.assign(static_cast<std::size_t>(bins), 0.0);
    const auto it = busy.find(tid);
    if (it != busy.end()) {
      for (const Interval& iv : it->second) {
        row.busy_seconds += (iv.end - iv.begin) * 1e-9;
        all_busy.push_back(iv);
        for (int b = 0; b < bins; ++b) {
          row.timeline[static_cast<std::size_t>(b)] +=
              bin_overlap(iv, t0, bin_ns, b) / bin_ns;
        }
      }
    }
    const auto tasks_it = tasks_by_tid.find(tid);
    row.tasks = tasks_it == tasks_by_tid.end() ? 0 : tasks_it->second;
    row.utilization = row.busy_seconds / report.wall_seconds;
    for (int b = 0; b < bins; ++b) {
      const auto idx = static_cast<std::size_t>(b);
      row.timeline[idx] = std::min(row.timeline[idx], 1.0);
      report.utilization_bins[idx] += row.timeline[idx];
    }
    report.busy_seconds += row.busy_seconds;
    report.tasks += row.tasks;
    report.per_worker.push_back(std::move(row));
  }
  if (report.workers > 0) {
    for (double& frac : report.utilization_bins) frac /= report.workers;
    report.utilization =
        report.busy_seconds / (report.wall_seconds * report.workers);
  }
  report.covered_seconds = union_length(all_busy) * 1e-9;
  report.serial_fraction =
      std::clamp(1.0 - report.covered_seconds / report.wall_seconds, 0.0, 1.0);
  if (report.tasks > 0) {
    report.mean_task_seconds = report.busy_seconds / report.tasks;
  }

  // Rounds: foreman round spans; slack = spread of each worker's last finish.
  std::vector<LogEvent> round_begins;
  for (const LogEvent& e : log.events) {
    if (e.cat != "foreman" || e.name != "round") continue;
    if (e.ph == Phase::kBegin) {
      round_begins.push_back(e);
    } else if (e.ph == Phase::kEnd && !round_begins.empty()) {
      const LogEvent begin = round_begins.back();
      round_begins.pop_back();
      RoundRow row;
      row.round_id = event_arg(begin, "round").value_or(-1);
      row.begin_seconds = (begin.ts_ns - t0) * 1e-9;
      row.duration_seconds = (e.ts_ns - begin.ts_ns) * 1e-9;
      std::map<int, double> last_finish;
      for (const auto& [tid, intervals] : busy) {
        for (const Interval& iv : intervals) {
          if (iv.end >= begin.ts_ns && iv.end <= e.ts_ns) {
            ++row.tasks;
            auto [it, inserted] = last_finish.emplace(tid, iv.end);
            if (!inserted) it->second = std::max(it->second, iv.end);
          }
        }
      }
      if (last_finish.size() > 1) {
        double lo = std::numeric_limits<double>::infinity();
        double hi = -std::numeric_limits<double>::infinity();
        for (const auto& [tid, ts] : last_finish) {
          lo = std::min(lo, ts);
          hi = std::max(hi, ts);
        }
        row.slack_seconds = (hi - lo) * 1e-9;
      }
      report.rounds.push_back(row);
    }
  }
  std::sort(report.rounds.begin(), report.rounds.end(),
            [](const RoundRow& a, const RoundRow& b) {
              return a.begin_seconds < b.begin_seconds;
            });

  // Task-time histogram (fixed log-ish bounds, seconds).
  report.task_hist_bounds = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                             1e-1, 3e-1, 1.0,  3.0};
  report.task_hist.assign(report.task_hist_bounds.size() + 1, 0);
  for (const double s : task_seconds) {
    const auto it = std::lower_bound(report.task_hist_bounds.begin(),
                                     report.task_hist_bounds.end(), s);
    ++report.task_hist[static_cast<std::size_t>(
        it - report.task_hist_bounds.begin())];
  }
  return report;
}

std::string render_report(const TraceReport& r) {
  std::ostringstream out;
  char buf[160];
  out << "== trace report ==\n";
  out << "wall time          " << format_seconds(r.wall_seconds) << "\n";
  out << "workers            " << r.workers << "\n";
  out << "tasks executed     " << r.tasks << "\n";
  out << "worker busy (sum)  " << format_seconds(r.busy_seconds) << "\n";
  std::snprintf(buf, sizeof buf, "parallel coverage  %s  (%.1f%% of wall)\n",
                format_seconds(r.covered_seconds).c_str(),
                100.0 * (1.0 - r.serial_fraction));
  out << buf;
  std::snprintf(buf, sizeof buf, "serial fraction    %.4f\n",
                r.serial_fraction);
  out << buf;
  std::snprintf(buf, sizeof buf, "aggregate util     %.1f%%\n",
                100.0 * r.utilization);
  out << buf;
  if (r.tasks > 0) {
    out << "mean task time     " << format_seconds(r.mean_task_seconds) << "\n";
  }
  std::snprintf(buf, sizeof buf, "queue depth        mean %.2f, max %lld\n",
                r.mean_queue_depth,
                static_cast<long long>(r.max_queue_depth));
  out << buf;
  std::snprintf(buf, sizeof buf,
                "flow arcs          dispatched %llu, executed %llu, "
                "completed %llu\n",
                static_cast<unsigned long long>(r.flow_begins),
                static_cast<unsigned long long>(r.flow_steps),
                static_cast<unsigned long long>(r.flow_ends));
  out << buf;
  out << "dropped events     " << r.dropped_events << "\n";

  if (!r.per_worker.empty()) {
    out << "\nper-worker utilization (bin = "
        << format_seconds(r.bin_seconds) << ")\n";
    out << "  tid  name          busy       tasks   util   timeline\n";
    for (const WorkerRow& w : r.per_worker) {
      std::snprintf(buf, sizeof buf, "  %3d  %-12s  %-9s  %5llu  %5.1f%%  |",
                    w.tid, w.name.c_str(),
                    format_seconds(w.busy_seconds).c_str(),
                    static_cast<unsigned long long>(w.tasks),
                    100.0 * w.utilization);
      out << buf;
      for (const double frac : w.timeline) out << util_ramp(frac);
      out << "|\n";
    }
    out << "  all  workers" << std::string(32, ' ') << "|";
    for (const double frac : r.utilization_bins) out << util_ramp(frac);
    out << "|\n";
  }

  if (!r.rounds.empty()) {
    out << "\nrounds\n";
    out << "  round      t0         duration    tasks   slack\n";
    for (const RoundRow& round : r.rounds) {
      std::snprintf(buf, sizeof buf, "  %5lld  %-10s  %-10s  %5llu   %s\n",
                    static_cast<long long>(round.round_id),
                    format_seconds(round.begin_seconds).c_str(),
                    format_seconds(round.duration_seconds).c_str(),
                    static_cast<unsigned long long>(round.tasks),
                    format_seconds(round.slack_seconds).c_str());
      out << buf;
    }
  }

  if (r.tasks > 0) {
    out << "\ntask time histogram\n";
    for (std::size_t i = 0; i < r.task_hist.size(); ++i) {
      if (i < r.task_hist_bounds.size()) {
        std::snprintf(buf, sizeof buf, "  <= %-9s %llu\n",
                      format_seconds(r.task_hist_bounds[i]).c_str(),
                      static_cast<unsigned long long>(r.task_hist[i]));
      } else {
        std::snprintf(buf, sizeof buf, "   > %-9s %llu\n",
                      format_seconds(r.task_hist_bounds.back()).c_str(),
                      static_cast<unsigned long long>(r.task_hist[i]));
      }
      out << buf;
    }
  }
  return out.str();
}

ScalingRow scaling_row(const TraceReport& baseline, const TraceReport& run) {
  ScalingRow row;
  row.workers = run.workers;
  row.baseline_wall_seconds = baseline.wall_seconds;
  row.wall_seconds = run.wall_seconds;
  if (run.wall_seconds > 0.0) {
    row.speedup = baseline.wall_seconds / run.wall_seconds;
  }
  if (run.workers > 0) row.efficiency = row.speedup / run.workers;
  return row;
}

std::string render_scaling(const ScalingRow& row) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "scaling: %d workers, wall %s vs baseline %s -> speedup "
                "%.2fx, efficiency %.1f%%\n",
                row.workers, format_seconds(row.wall_seconds).c_str(),
                format_seconds(row.baseline_wall_seconds).c_str(), row.speedup,
                100.0 * row.efficiency);
  return buf;
}

TraceLog merge_trace_logs(const std::vector<TraceLog>& logs) {
  TraceLog merged;
  for (const auto& log : logs) {
    for (const auto& [tid, name] : log.threads) {
      // First name wins: a thread renamed mid-run keeps its original label.
      bool known = false;
      for (const auto& [existing, unused] : merged.threads) {
        if (existing == tid) {
          known = true;
          break;
        }
      }
      if (!known) merged.threads.emplace_back(tid, name);
    }
    merged.events.insert(merged.events.end(), log.events.begin(),
                         log.events.end());
    merged.dropped_events += log.dropped_events;
  }
  merged.sort_events();
  return merged;
}

}  // namespace fdml::obs
