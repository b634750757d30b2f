// The command-line front end shared by fastdnamlpp and fdmld. Every flag
// both programs understand is parsed here, once, with one name and one
// default: the dataset, the socket fabric, logging and tracing, --resume and
// the canonical --out result file.
#pragma once

#include <optional>
#include <string>

#include "fdml.hpp"

namespace fdml::front_end {

/// Applies --log-level and, with --trace-out, starts the span tracer.
/// Returns false after printing an error for an unknown level (exit 2).
bool init_logging(const CliArgs& args);

/// With --trace-out=FILE: stops the tracer and writes its Chrome trace to
/// FILE + suffix. True when tracing is off or the file was written.
bool write_trace(const CliArgs& args, const std::string& suffix = "");

/// Writes `log` as a Chrome trace (chrome://tracing, trace_report).
bool write_trace_file(const std::string& path, const obs::TraceLog& log);

/// True when the command line names a dataset (see load_dataset).
bool has_dataset(const CliArgs& args);

/// The PHYLIP file named by the first positional argument, or else the
/// synthetic paper-like alignment of --taxa (default 12) x --sites (default
/// 300) at seed 4242. Every process of a multi-process run loads the same
/// alignment from the same flags, as the paper's PVM processes each did.
/// Prints the reason and returns nullopt when the file cannot be read.
std::optional<Alignment> load_dataset(const CliArgs& args);

/// The foreman's --timeout-ms, for either cluster backend; unset, it keeps
/// the library default.
ForemanOptions foreman_options(const CliArgs& args);

/// The socket fabric's --rank, --fabric-size, --host, --port,
/// --connect-timeout-ms, --reconnect, --reconnect-budget-ms and
/// --telemetry-ms, the foreman's --heartbeat-ms, plus foreman_options();
/// each unset flag keeps the library default.
SocketRunOptions socket_options(const CliArgs& args);

/// --resume: the newest valid checkpoint generation at `path` for this
/// dataset. Prints the reason and returns nullopt when there is none or it
/// belongs to another dataset (exit 1).
std::optional<RecoveredCheckpoint> recover_for_resume(
    const std::string& path, std::uint64_t dataset_fingerprint);

/// The canonical --out file that runs which must agree are compared on
/// byte for byte: the tree as Newick with 10 digits, then "lnL %.6f".
bool write_result_file(const std::string& path, const std::string& newick,
                       const PatternAlignment& data, double log_likelihood);

}  // namespace fdml::front_end
