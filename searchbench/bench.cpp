#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <functional>

namespace searchbench {

namespace {

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

/// Innermost open span of this thread (index into the log), -1 for none.
thread_local std::int64_t t_current_span = -1;

}  // namespace

double steady_seconds() { return clock_seconds(CLOCK_MONOTONIC); }
double process_cpu_seconds() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }

// ---------------------------------------------------------------------------
// SpanLog

std::int64_t SpanLog::open(std::string_view name) {
  SpanRecord record;
  record.name = std::string(name);
  record.start = clock_();
  record.thread = thread_key();
  record.parent = t_current_span;
  std::lock_guard lock(mutex_);
  records_.push_back(std::move(record));
  t_current_span = static_cast<std::int64_t>(records_.size()) - 1;
  return t_current_span;
}

void SpanLog::close(std::int64_t id) {
  const double now = clock_();
  std::lock_guard lock(mutex_);
  SpanRecord& record = records_.at(static_cast<std::size_t>(id));
  record.end = now;
  t_current_span = record.parent;
}

std::vector<SpanRecord> SpanLog::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  const std::vector<SpanRecord> spans = records();
  std::vector<double> child_s(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = out[spans[i].name];
    const double d = spans[i].end - spans[i].start;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const std::vector<SpanRecord> spans = records();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::uint64_t, int> tids;
  double origin = spans.empty() ? 0.0 : spans.front().start;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start);
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const int tid = tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", s.name.c_str(), tid,
                 (s.start - origin) * 1e6, (s.end - s.start) * 1e6);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// TimingRunner

const char* round_kind_name(RoundKind kind) {
  switch (kind) {
    case RoundKind::kInitial: return "initial";
    case RoundKind::kInsertion: return "insertion";
    case RoundKind::kWinner: return "winner";
    case RoundKind::kRearrange: return "rearrange";
  }
  return "?";
}

fdml::RoundOutcome TimingRunner::run_round(
    const std::vector<fdml::TreeTask>& tasks) {
  RoundKind kind = RoundKind::kRearrange;
  {
    std::lock_guard lock(mutex_);
    const auto last = last_kind_.find(std::this_thread::get_id());
    if (!tasks.empty() && tasks.front().focus_taxon >= 0) {
      kind = RoundKind::kInsertion;
    } else if (!tasks.empty() && tasks.front().round_id == 0) {
      kind = RoundKind::kInitial;
    } else if (last != last_kind_.end() && last->second == RoundKind::kInsertion) {
      kind = RoundKind::kWinner;
    }
    last_kind_[std::this_thread::get_id()] = kind;
  }

  RoundRecord record;
  record.kind = kind;
  record.tasks = tasks.size();
  const double cpu = cpu_clock_();
  record.start = clock_();
  fdml::RoundOutcome outcome;
  {
    Span span(spans_, std::string("round.") + round_kind_name(kind));
    outcome = inner_.run_round(tasks);
  }
  record.end = clock_();
  for (const fdml::TaskStat& stat : outcome.stats) {
    record.task_cpu_s += stat.cpu_seconds;
    record.bytes += stat.bytes;
  }

  std::lock_guard lock(mutex_);
  if (first_start_ < 0.0) {
    first_start_ = record.start;
    first_cpu_ = cpu;
  }
  if (capture_) {
    for (const fdml::TreeTask& task : tasks) {
      captured_.push_back({kind, rounds_.size(), task});
    }
  }
  rounds_.push_back(record);
  return outcome;
}

// ---------------------------------------------------------------------------
// TimingVfs

template <typename Op>
void TimingVfs::timed_write(std::string_view span_name, Op&& op) {
  const double start = clock_();
  {
    Span span(spans_, span_name);
    op();
  }
  const double elapsed = clock_() - start;
  std::lock_guard lock(mutex_);
  tally_.write_s += elapsed;
}

void TimingVfs::write_file(const std::string& path, const std::uint8_t* data,
                           std::size_t size) {
  timed_write("vfs.write", [&] { inner_.write_file(path, data, size); });
  std::lock_guard lock(mutex_);
  ++tally_.writes;
  tally_.bytes_written += size;
}

void TimingVfs::append_file(const std::string& path, const std::uint8_t* data,
                            std::size_t size) {
  timed_write("vfs.append", [&] { inner_.append_file(path, data, size); });
  std::lock_guard lock(mutex_);
  ++tally_.writes;
  tally_.bytes_written += size;
}

std::optional<std::vector<std::uint8_t>> TimingVfs::read_file(
    const std::string& path) {
  Span span(spans_, "vfs.read");
  return inner_.read_file(path);
}

void TimingVfs::rename_file(const std::string& from, const std::string& to) {
  timed_write("vfs.rename", [&] { inner_.rename_file(from, to); });
  std::lock_guard lock(mutex_);
  ++tally_.commits;
}

void TimingVfs::remove_file(const std::string& path) {
  timed_write("vfs.remove", [&] { inner_.remove_file(path); });
}

bool TimingVfs::exists(const std::string& path) { return inner_.exists(path); }

std::vector<std::string> TimingVfs::list_dir(const std::string& dir) {
  Span span(spans_, "vfs.list");
  return inner_.list_dir(dir);
}

void TimingVfs::sync_dir(const std::string& dir) {
  timed_write("vfs.sync_dir", [&] { inner_.sync_dir(dir); });
}

VfsTally TimingVfs::tally() const {
  std::lock_guard lock(mutex_);
  return tally_;
}

// ---------------------------------------------------------------------------
// Metric arithmetic

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

RoundTally tally_rounds(const std::vector<RoundRecord>& rounds) {
  RoundTally t;
  for (const RoundRecord& r : rounds) {
    ++t.rounds;
    t.tasks += r.tasks;
    if (r.kind == RoundKind::kInsertion) {
      t.insertion_tasks += r.tasks;
    } else {
      t.full_tasks += r.tasks;
    }
    if (r.kind == RoundKind::kRearrange) {
      t.rearrange_tasks += r.tasks;
      t.rearrange_cpu_s += r.task_cpu_s;
    }
    t.round_s += r.end - r.start;
    t.task_cpu_s += r.task_cpu_s;
    t.bytes += r.bytes;
  }
  return t;
}

double worker_busy_share(const RoundTally& t, int workers) {
  const double capacity = static_cast<double>(workers) * t.round_s;
  return capacity > 0.0 ? t.task_cpu_s / capacity : 0.0;
}

double dispatch_overhead_us_per_task(const RoundTally& t, int workers) {
  if (t.tasks == 0) return 0.0;
  return (static_cast<double>(workers) * t.round_s - t.task_cpu_s) /
         static_cast<double>(t.tasks) * 1e6;
}

}  // namespace searchbench
