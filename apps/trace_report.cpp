// trace_report — turns a Chrome trace (from --trace-out on a live run, a
// --trace-dir segment directory, or the simulator's virtual-time replay)
// into the paper's tables: per-worker utilization timelines, serial
// fraction, queue depth, per-round slack, task-time histograms, and —
// given a baseline trace — the speedup/efficiency row of Figure 3/4.
//
//   trace_report run.json
//   trace_report segments/                          # stitch segment-*.json
//   trace_report segments/ --stitch-out=all.json    # + write merged trace
//   trace_report run4.json --baseline=run1.json     # speedup & efficiency
//   trace_report run.json --bins=48                 # finer timeline
//   trace_report run.json --assert-util-min=0.05 --assert-util-max=1.0
//                                                   # CI gate (exit 1)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "front_end.hpp"

namespace {

bool load_one(const std::string& path, fdml::obs::TraceLog& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return false;
  }
  try {
    out = fdml::obs::load_chrome_trace(in);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.what());
    return false;
  }
  return true;
}

/// Rotated segments under `dir`, in rotation (= time) order. The numeric
/// index is what orders them — lexicographic breaks past segment-9.
std::vector<std::string> list_segments(const std::string& dir) {
  std::vector<std::pair<long long, std::string>> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("segment-", 0) != 0) continue;
    if (name.size() < 14 || name.substr(name.size() - 5) != ".json") continue;
    try {
      found.emplace_back(std::stoll(name.substr(8, name.size() - 13)),
                         entry.path().string());
    } catch (const std::exception&) {
      // Not a rotation index (e.g. a stitch output someone parked here).
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [index, path] : found) paths.push_back(std::move(path));
  return paths;
}

/// A file loads directly; a directory stitches its segment-*.json set.
bool load(const std::string& path, fdml::obs::TraceLog& out) {
  std::error_code ec;
  if (!std::filesystem::is_directory(path, ec)) return load_one(path, out);
  const auto paths = list_segments(path);
  if (paths.empty()) {
    std::fprintf(stderr, "error: no segment-*.json under %s\n", path.c_str());
    return false;
  }
  std::vector<fdml::obs::TraceLog> logs(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!load_one(paths[i], logs[i])) return false;
  }
  out = fdml::obs::merge_trace_logs(logs);
  std::fprintf(stderr, "stitched %zu segment(s) from %s\n", paths.size(),
               path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s TRACE.json [--baseline=TRACE.json] [--bins=N]\n"
                 "          [--assert-util-min=X] [--assert-util-max=X]\n",
                 argv[0]);
    return 2;
  }

  obs::TraceLog log;
  if (!load(args.positional().front(), log)) return 1;
  if (args.has("stitch-out") &&
      !front_end::write_trace_file(args.get("stitch-out", ""), log)) {
    return 1;
  }
  const int bins = static_cast<int>(args.get_int("bins", 24));
  const obs::TraceReport report = obs::analyze_trace(log, bins);
  std::fputs(obs::render_report(report).c_str(), stdout);

  if (args.has("baseline")) {
    obs::TraceLog base_log;
    if (!load(args.get("baseline", ""), base_log)) return 1;
    const obs::TraceReport base = obs::analyze_trace(base_log, bins);
    std::fputs(obs::render_scaling(obs::scaling_row(base, report)).c_str(),
               stdout);
  }

  // CI gate: a run whose workers sat idle (or a report whose math went
  // wild) fails loudly instead of producing a pretty table.
  if (args.has("assert-util-min") &&
      report.utilization < args.get_double("assert-util-min", 0.0)) {
    std::fprintf(stderr, "FAIL: utilization %.4f < min %.4f\n",
                 report.utilization, args.get_double("assert-util-min", 0.0));
    return 1;
  }
  if (args.has("assert-util-max") &&
      report.utilization > args.get_double("assert-util-max", 1.0)) {
    std::fprintf(stderr, "FAIL: utilization %.4f > max %.4f\n",
                 report.utilization, args.get_double("assert-util-max", 1.0));
    return 1;
  }
  return 0;
}
