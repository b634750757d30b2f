#include "front_end.hpp"

#include <cstdio>
#include <fstream>

namespace fdml::front_end {

bool init_logging(const CliArgs& args) {
  if (args.has("log-level")) {
    const auto level = parse_log_level(args.get("log-level", ""));
    if (!level.has_value()) {
      std::fprintf(stderr,
                   "error: bad --log-level (debug|info|warn|error|off)\n");
      return false;
    }
    set_log_level(*level);
  }
  if (args.has("trace-out")) obs::Tracer::instance().enable();
  return true;
}

bool write_trace(const CliArgs& args, const std::string& suffix) {
  if (!args.has("trace-out")) return true;
  obs::Tracer::instance().disable();
  return write_trace_file(args.get("trace-out", "") + suffix,
                          obs::Tracer::instance().drain());
}

bool write_trace_file(const std::string& path, const obs::TraceLog& log) {
  std::ofstream out(path);
  log.write_chrome(out);
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote trace: %s (%zu events, %llu dropped)\n", path.c_str(),
              log.events.size(),
              static_cast<unsigned long long>(log.dropped_events));
  return true;
}

bool has_dataset(const CliArgs& args) {
  return !args.positional().empty() || args.has("taxa");
}

std::optional<Alignment> load_dataset(const CliArgs& args) {
  try {
    if (!args.positional().empty()) {
      return read_phylip_file(args.positional().front());
    }
    return make_paper_like_dataset(
        static_cast<int>(args.get_int("taxa", 12)),
        static_cast<std::size_t>(args.get_int("sites", 300)), 4242);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: cannot load the dataset: %s\n", error.what());
    return std::nullopt;
  }
}

ForemanOptions foreman_options(const CliArgs& args) {
  ForemanOptions foreman;
  foreman.worker_timeout = std::chrono::milliseconds(
      args.get_int("timeout-ms", foreman.worker_timeout.count()));
  return foreman;
}

SocketRunOptions socket_options(const CliArgs& args) {
  using std::chrono::milliseconds;
  SocketRunOptions options;
  options.foreman = foreman_options(args);
  options.foreman.heartbeat_interval = milliseconds(
      args.get_int("heartbeat-ms", options.foreman.heartbeat_interval.count()));
  SocketOptions& socket = options.socket;
  socket.rank = static_cast<int>(args.get_int("rank", 0));
  socket.size = static_cast<int>(args.get_int("fabric-size", 0));
  socket.host = args.get("host", socket.host);
  socket.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  socket.connect_timeout = milliseconds(
      args.get_int("connect-timeout-ms", socket.connect_timeout.count()));
  socket.reconnect = args.has("reconnect");
  socket.reconnect_budget = milliseconds(
      args.get_int("reconnect-budget-ms", socket.reconnect_budget.count()));
  // --telemetry-ms=N turns on the live telemetry plane: every non-master
  // rank ships metric deltas to the hub each period. Without it the only
  // frames are each worker's final totals at shutdown.
  options.telemetry_interval = milliseconds(
      args.get_int("telemetry-ms", options.telemetry_interval.count()));
  return options;
}

std::optional<RecoveredCheckpoint> recover_for_resume(
    const std::string& path, std::uint64_t dataset_fingerprint) {
  std::optional<RecoveredCheckpoint> recovered;
  try {
    recovered = recover_checkpoint(path, dataset_fingerprint);
  } catch (const std::exception& error) {
    // Typically FingerprintMismatchError: the checkpoint belongs to another
    // alignment or model, and resuming it would continue the wrong search.
    std::fprintf(stderr, "error: cannot resume from %s: %s\n", path.c_str(),
                 error.what());
    return std::nullopt;
  }
  if (!recovered.has_value()) {
    std::fprintf(stderr, "error: no usable checkpoint at %s\n", path.c_str());
  }
  return recovered;
}

bool write_result_file(const std::string& path, const std::string& newick,
                       const PatternAlignment& data, double log_likelihood) {
  const Tree best = tree_from_newick(newick, data.names());
  std::ofstream out(path);
  out << to_newick(best, data.names(), 10) << "\n";
  char lnl[64];
  std::snprintf(lnl, sizeof lnl, "lnL %.6f\n", log_likelihood);
  out << lnl;
  if (!out) {
    std::fprintf(stderr, "error writing %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace fdml::front_end
