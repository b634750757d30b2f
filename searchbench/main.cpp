// searchbench: time to the best tree for whole fastdnaml++ searches, with
// per-layer numbers measured from outside the program. See README.md for the
// workloads, the metrics and how to read a traced run.
//
//   searchbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --out <dir>
//   searchbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "fdml.hpp"

int run_self_test();

namespace {

using namespace fdml;
namespace sb = searchbench;

enum class Backend { kSerial, kThreads, kSocket };

/// Why each workload exists is in README.md. All run F84 (ts/tv 2) with
/// uniform rates, and at most 3 compute workers, so workers plus the master
/// fit a 4-core host.
struct WorkloadSpec {
  const char* name;
  int taxa;
  std::size_t sites;
  Backend backend;
  bool jobs;      ///< closed-loop JobScheduler clients instead of one search
  int searches;   ///< searches (or jobs) per pass; each has its own seed
};

constexpr int kWorkers = 3;
constexpr int kJobClients = 3;
constexpr int kSetupReps = 15;

const WorkloadSpec kWorkloads[] = {
    {"paper50-threads3", 50, 1858, Backend::kThreads, false, 2},
    {"short50-socket3", 50, 300, Backend::kSocket, false, 4},
    {"short50-serial", 50, 300, Backend::kSerial, false, 2},
    {"jobs-threads3", 24, 600, Backend::kThreads, true, 18},
};

// Seeds. --seed n generates the alignment from dataset seed 2n-1 and gives
// the i-th search (or job) of a pass search seed 2(16(n-1)+i)+1, so workloads
// on the same alignment share their first searches. fdml maps an even seed to
// the odd one above it, so only odd seeds are distinct; --seed 1 is dataset
// seed 1 with search seed 1.
constexpr std::uint64_t kSeedStride = 16;  // > searches per pass
std::uint64_t dataset_seed(std::uint64_t seed) { return 2 * seed - 1; }
std::uint64_t search_seed(std::uint64_t seed, int i) {
  return 2 * ((seed - 1) * kSeedStride + static_cast<std::uint64_t>(i)) + 1;
}

std::uint16_t pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  if (!ok) throw std::runtime_error("could not find a free loopback port");
  return ntohs(addr.sin_port);
}

double read_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Counters a backend reports once it has shut down.
struct BackendStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frame_errors = 0;
  std::uint64_t peer_deaths = 0;
  std::uint64_t requeues = 0;
  std::uint64_t delinquencies = 0;
  std::uint64_t serial_fallbacks = 0;
  std::uint64_t rounds_failed = 0;

  /// A run that needed any of these did not run as designed.
  bool faulted() const {
    return frames_dropped + frame_errors + peer_deaths + serial_fallbacks +
               rounds_failed != 0;
  }
};

/// What set-up builds: the compressed alignment, the model, and the runner
/// (serial, thread cluster, or loopback socket cluster with its peer ranks
/// on threads).
class Setup {
 public:
  Setup(const Alignment& alignment, Backend backend)
      : data_([&] {
          const double start = sb::steady_seconds();
          auto data = std::make_unique<PatternAlignment>(alignment);
          compress_s_ = sb::steady_seconds() - start;
          return data;
        }()),
        model_(SubstModel::f84_from_tstv(data_->base_frequencies(), 2.0)),
        rates_(RateModel::uniform()),
        backend_(backend) {
    switch (backend) {
      case Backend::kSerial:
        serial_ = std::make_unique<SerialTaskRunner>(*data_, model_, rates_);
        break;
      case Backend::kThreads: {
        ClusterOptions options;
        options.num_workers = kWorkers;
        cluster_ = std::make_unique<InProcessCluster>(*data_, model_, rates_,
                                                      options);
        break;
      }
      case Backend::kSocket:
        start_socket();
        break;
    }
  }

  ~Setup() {
    try {
      finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "searchbench: teardown failed: %s\n", e.what());
    }
  }

  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  TaskRunner& runner() {
    if (serial_) return *serial_;
    if (cluster_) return cluster_->runner();
    return socket_->runner();
  }
  const PatternAlignment& data() const { return *data_; }
  const SubstModel& model() const { return model_; }
  const RateModel& rates() const { return rates_; }
  double compress_s() const { return compress_s_; }
  int workers() const { return backend_ == Backend::kSerial ? 1 : kWorkers; }

  /// Shuts the backend down (joining every thread it started) and returns
  /// its counters. Idempotent.
  BackendStats finish() {
    if (finished_) return stats_;
    finished_ = true;
    if (cluster_) {
      cluster_->shutdown();
      const ForemanStats& foreman = cluster_->foreman_stats();
      const MasterStats master = cluster_->master_stats();
      stats_.messages = cluster_->fabric_messages();
      stats_.bytes = cluster_->fabric_bytes();
      stats_.requeues = foreman.requeues;
      stats_.delinquencies = foreman.delinquencies;
      stats_.serial_fallbacks = master.serial_fallbacks;
      stats_.rounds_failed = master.rounds_failed + foreman.rounds_failed;
    }
    if (socket_) {
      socket_->shutdown();
      for (auto& thread : roles_) thread.join();
      const SocketFabricStats fabric = socket_->fabric_stats();
      const MasterStats master = socket_->master_stats();
      stats_.messages = fabric.frames_sent + fabric.frames_received;
      stats_.bytes = fabric.bytes_sent + fabric.bytes_received;
      stats_.frames_dropped = fabric.frames_dropped;
      stats_.frame_errors = fabric.frame_errors;
      stats_.peer_deaths = fabric.peer_deaths;
      stats_.serial_fallbacks = master.serial_fallbacks;
      stats_.rounds_failed = master.rounds_failed;
      if (const auto& foreman = role_results_[kForemanRank].foreman) {
        stats_.requeues = foreman->requeues;
        stats_.delinquencies = foreman->delinquencies;
        stats_.rounds_failed += foreman->rounds_failed;
      }
      if (role_failed_.load()) ++stats_.peer_deaths;  // a rank thread threw
    }
    return stats_;
  }

 private:
  void start_socket() {
    SocketRunOptions options;
    options.socket.size = kFirstWorkerRank + kWorkers;
    options.socket.port = pick_free_port();
    options.socket.connect_timeout = std::chrono::milliseconds(10000);
    options.socket.connect_retry = std::chrono::milliseconds(10);
    socket_ = std::make_unique<SocketCluster>(*data_, model_, rates_, options);
    role_results_.resize(static_cast<std::size_t>(options.socket.size));
    for (int rank = 1; rank < options.socket.size; ++rank) {
      roles_.emplace_back([this, options, rank] {
        SocketRunOptions role = options;
        role.socket.rank = rank;
        try {
          role_results_[static_cast<std::size_t>(rank)] =
              run_socket_role(*data_, model_, rates_, role);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "searchbench: rank %d failed: %s\n", rank,
                       e.what());
          role_failed_.store(true);
        }
      });
    }
    if (!socket_->wait_ready(std::chrono::milliseconds(10000))) {
      socket_->shutdown();
      for (auto& thread : roles_) thread.join();
      finished_ = true;
      throw std::runtime_error("socket rendezvous timed out");
    }
  }

  double compress_s_ = 0.0;
  std::unique_ptr<PatternAlignment> data_;
  SubstModel model_;
  RateModel rates_;
  Backend backend_;
  std::unique_ptr<SerialTaskRunner> serial_;
  std::unique_ptr<InProcessCluster> cluster_;
  std::unique_ptr<SocketCluster> socket_;
  std::vector<SocketRoleResult> role_results_;
  std::atomic<bool> role_failed_{false};
  std::vector<std::thread> roles_;
  bool finished_ = false;
  BackendStats stats_;
};

/// Output check for one returned tree: its lnL re-evaluated by a fresh
/// engine must match the reported value, and its RF distance to the
/// generating tree is recorded.
struct TreeCheck {
  bool ok = false;
  double lnl = 0.0;
  int rf = 0;
};

TreeCheck check_tree(const Setup& setup, const Tree& truth,
                     const std::string& newick, double reported) {
  TreeCheck check;
  try {
    const Tree tree = tree_from_newick(newick, setup.data().names());
    LikelihoodEngine engine(setup.data(), setup.model(), setup.rates());
    engine.attach(tree);
    const double lnl = engine.log_likelihood();
    check.lnl = reported;
    check.rf = robinson_foulds(tree, truth);
    check.ok = std::isfinite(lnl) &&
               std::abs(lnl - reported) <= 1e-7 * std::abs(reported);
    if (!check.ok) {
      std::fprintf(stderr, "searchbench: lnL mismatch: reported %.10f, "
                           "re-evaluated %.10f\n", reported, lnl);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "searchbench: tree check failed: %s\n", e.what());
  }
  return check;
}

/// One pass of a workload: K searches (or jobs) on one set-up.
struct Pass {
  std::vector<double> search_s;  ///< per search, or per job latency
  std::vector<double> cpu_s;     ///< process CPU per search (per job)
  double makespan_s = 0.0;       ///< first dispatch to last result
  std::vector<TreeCheck> checks;
  std::vector<sb::RoundRecord> rounds;
  std::vector<sb::CapturedTask> captured;
  sb::VfsTally vfs;
  SchedulerStats scheduler;
  std::uint64_t failed = 0;  ///< checks failed plus jobs not kDone
};

void run_searches(Setup& setup, const Tree& truth, std::uint64_t seed,
                  int count, sb::SpanLog* spans, bool capture, Pass& pass) {
  const double pass_start = sb::steady_seconds();
  for (int i = 0; i < count; ++i) {
    sb::TimingRunner timed(setup.runner(), sb::steady_seconds,
                           sb::process_cpu_seconds, spans, capture);
    SearchOptions options;
    options.seed = search_seed(seed, i);
    SearchResult result;
    {
      sb::Span span(spans, "search");
      result = StepwiseSearch(setup.data(), options).run(timed);
    }
    const double end = sb::steady_seconds();
    const double cpu_end = sb::process_cpu_seconds();
    pass.search_s.push_back(end - timed.first_start());
    pass.cpu_s.push_back(cpu_end - timed.first_cpu());
    {
      sb::Span span(spans, "check");
      pass.checks.push_back(check_tree(setup, truth, result.best_newick,
                                       result.best_log_likelihood));
    }
    pass.rounds.insert(pass.rounds.end(), timed.rounds().begin(),
                       timed.rounds().end());
    pass.captured.insert(pass.captured.end(), timed.captured().begin(),
                         timed.captured().end());
  }
  pass.makespan_s = sb::steady_seconds() - pass_start;
}

/// Closed loop: kJobClients clients, each submitting its next job only after
/// its previous one finished, over one JobScheduler with durable checkpoints
/// in a fresh directory.
void run_jobs(Setup& setup, const Tree& truth, std::uint64_t seed, int count,
              const std::string& dir, sb::SpanLog* spans, bool capture,
              Pass& pass) {
  sb::TimingRunner timed(setup.runner(), sb::steady_seconds,
                         sb::process_cpu_seconds, spans, capture);
  sb::TimingVfs vfs(real_vfs(), sb::steady_seconds, spans);
  obs::MetricsRegistry registry;
  SchedulerOptions options;
  options.admission.max_active = kJobClients;
  options.admission.max_queued = kJobClients;
  options.checkpoint_dir = dir;
  options.vfs = spans != nullptr ? &vfs : nullptr;  // decorate traced runs only
  options.metrics = &registry;

  std::vector<double> latency(static_cast<std::size_t>(count), 0.0);
  std::vector<JobOutcome> outcomes(static_cast<std::size_t>(count));
  const double start = sb::steady_seconds();
  const double cpu_start = sb::process_cpu_seconds();
  {
    JobScheduler scheduler(setup.data(), timed, options);
    std::vector<std::thread> clients;
    for (int c = 0; c < kJobClients; ++c) {
      clients.emplace_back([&, c] {
        for (int j = c; j < count; j += kJobClients) {
          sb::Span span(spans, "job");
          const double submitted = sb::steady_seconds();
          JobSpec spec;
          spec.seed = search_seed(seed, j);
          const auto submission = scheduler.submit(spec);
          if (submission.rejected) continue;  // outcome stays kFailed
          outcomes[static_cast<std::size_t>(j)] =
              scheduler.wait(submission.job_id);
          latency[static_cast<std::size_t>(j)] =
              sb::steady_seconds() - submitted;
        }
      });
    }
    for (auto& client : clients) client.join();
    pass.scheduler = scheduler.stats();
  }
  pass.makespan_s = sb::steady_seconds() - start;
  const double cpu = sb::process_cpu_seconds() - cpu_start;
  for (int j = 0; j < count; ++j) {
    const JobOutcome& outcome = outcomes[static_cast<std::size_t>(j)];
    pass.search_s.push_back(latency[static_cast<std::size_t>(j)]);
    pass.cpu_s.push_back(cpu / count);
    if (outcome.status != JobStatus::kDone) {
      ++pass.failed;
      continue;
    }
    sb::Span span(spans, "check");
    pass.checks.push_back(
        check_tree(setup, truth, outcome.newick, outcome.log_likelihood));
  }
  pass.rounds = timed.rounds();
  pass.captured = timed.captured();
  pass.vfs = vfs.tally();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------------
// Offline replay of captured tasks

struct Replay {
  double full_ms = 0.0;
  double insertion_ms = 0.0;
  double clv_per_full = 0.0;
  double clv_per_insertion = 0.0;
  double captures_per_full = 0.0;
  double evals_per_full = 0.0;
  double kernel_share = 0.0;
  double transition_hit_rate = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
  double frame_us = 0.0;
};

/// Evenly spaced picks of at most `limit` out of `n`.
std::vector<std::size_t> even_picks(std::size_t n, std::size_t limit) {
  std::vector<std::size_t> picks;
  if (n == 0) return picks;
  const std::size_t take = std::min(n, limit);
  for (std::size_t k = 0; k < take; ++k) picks.push_back(k * n / take);
  return picks;
}

/// Re-evaluates a sample of the captured tasks through a fresh TaskEvaluator
/// (rearrangement tasks spread over the search; whole insertion rounds in
/// order, so the round's shared base tree is reused as a worker reuses it),
/// and times the task codec on a sample of them.
Replay replay(const Setup& setup, const std::vector<sb::CapturedTask>& captured,
              sb::SpanLog* spans) {
  Replay out;
  const auto& names = setup.data().names();
  TaskEvaluator evaluator(setup.data(), setup.model(), setup.rates());

  std::vector<const TreeTask*> full;
  std::vector<std::vector<const TreeTask*>> insertion_rounds;
  std::size_t last_round = static_cast<std::size_t>(-1);
  for (const sb::CapturedTask& c : captured) {
    if (c.kind == sb::RoundKind::kRearrange) full.push_back(&c.task);
    if (c.kind == sb::RoundKind::kInsertion) {
      if (c.round != last_round) insertion_rounds.emplace_back();
      insertion_rounds.back().push_back(&c.task);
      last_round = c.round;
    }
  }

  auto run = [&](const std::vector<const TreeTask*>& tasks, const char* name,
                 KernelCounters& delta) {
    const KernelCounters before = evaluator.engine().counters();
    const double start = sb::steady_seconds();
    for (const TreeTask* task : tasks) {
      sb::Span span(spans, name);
      (void)evaluator.evaluate(*task);
    }
    const double wall = sb::steady_seconds() - start;
    const KernelCounters after = evaluator.engine().counters();
    delta.clv_computations = after.clv_computations - before.clv_computations;
    delta.edge_captures = after.edge_captures - before.edge_captures;
    delta.edge_evaluations = after.edge_evaluations - before.edge_evaluations;
    delta.kernel_ns = after.kernel_ns - before.kernel_ns;
    delta.transition_hits = after.transition_hits - before.transition_hits;
    delta.transition_misses = after.transition_misses - before.transition_misses;
    return wall;
  };

  std::vector<const TreeTask*> full_sample;
  for (std::size_t i : even_picks(full.size(), 48)) full_sample.push_back(full[i]);
  std::vector<const TreeTask*> insertion_sample;
  for (std::size_t i : even_picks(insertion_rounds.size(), 8)) {
    insertion_sample.insert(insertion_sample.end(), insertion_rounds[i].begin(),
                            insertion_rounds[i].end());
  }
  KernelCounters full_delta;
  KernelCounters insertion_delta;
  const double full_wall = run(full_sample, "replay.full", full_delta);
  const double insertion_wall =
      run(insertion_sample, "replay.insertion", insertion_delta);
  if (!full_sample.empty()) {
    const double n = static_cast<double>(full_sample.size());
    out.full_ms = full_wall / n * 1e3;
    out.clv_per_full = static_cast<double>(full_delta.clv_computations) / n;
    out.captures_per_full = static_cast<double>(full_delta.edge_captures) / n;
    out.evals_per_full = static_cast<double>(full_delta.edge_evaluations) / n;
    out.kernel_share = static_cast<double>(full_delta.kernel_ns) * 1e-9 / full_wall;
    out.transition_hit_rate = full_delta.transition_hit_rate();
  }
  if (!insertion_sample.empty()) {
    const double n = static_cast<double>(insertion_sample.size());
    out.insertion_ms = insertion_wall / n * 1e3;
    out.clv_per_insertion =
        static_cast<double>(insertion_delta.clv_computations) / n;
  }

  // Codec: master-side encode (Newick print + pack), worker-side decode
  // (unpack + Newick parse), and the socket wire frame round trip.
  constexpr int kReps = 20;
  std::size_t sink = 0;
  double encode_s = 0.0, decode_s = 0.0, frame_s = 0.0;
  const std::vector<std::size_t> picks = even_picks(captured.size(), 64);
  for (std::size_t i : picks) {
    const TreeTask& task = captured[i].task;
    const Tree tree = tree_from_newick(task.newick, names);
    Packer packed;
    task.pack(packed);
    const std::vector<std::uint8_t> bytes = packed.data();
    {
      sb::Span span(spans, "codec.encode");
      const double start = sb::steady_seconds();
      for (int r = 0; r < kReps; ++r) {
        TreeTask copy = task;
        copy.newick = to_newick(tree, names, 17);
        Packer packer;
        copy.pack(packer);
        sink += packer.size();
      }
      encode_s += sb::steady_seconds() - start;
    }
    {
      sb::Span span(spans, "codec.decode");
      const double start = sb::steady_seconds();
      for (int r = 0; r < kReps; ++r) {
        Unpacker unpacker(bytes);
        const TreeTask decoded = TreeTask::unpack(unpacker);
        sink += static_cast<std::size_t>(
            tree_from_newick(decoded.newick, names).tip_count());
      }
      decode_s += sb::steady_seconds() - start;
    }
    {
      sb::Span span(spans, "codec.frame");
      const double start = sb::steady_seconds();
      for (int r = 0; r < kReps; ++r) {
        WireFrame frame;
        frame.source = kForemanRank;
        frame.dest = kFirstWorkerRank;
        frame.tag = MessageTag::kTask;
        frame.payload = bytes;
        const std::vector<std::uint8_t> wire = encode_frame(frame);
        FrameParser parser;
        std::vector<WireFrame> frames;
        parser.feed(wire.data(), wire.size(), frames);
        sink += frames.size();
      }
      frame_s += sb::steady_seconds() - start;
    }
  }
  if (!picks.empty()) {
    const double n = static_cast<double>(picks.size() * kReps);
    out.encode_us = encode_s / n * 1e6;
    out.decode_us = decode_s / n * 1e6;
    out.frame_us = frame_s / n * 1e6;
  }
  if (sink == 0) std::fprintf(stderr, "searchbench: empty codec replay\n");
  return out;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value) != 0;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return args;
}

/// Everything one traced or untraced pass yields, reduced to numbers.
struct PassResult {
  Pass pass;
  BackendStats backend;
  std::vector<double> setup_s;
  std::vector<double> compress_s;
  double peak_rss_mb = 0.0;  ///< after the pass, before the extra set-ups
  int workers = 1;
};

/// Times one set-up (compression + runner + rendezvous).
std::unique_ptr<Setup> timed_setup(const WorkloadSpec& spec,
                                   const Alignment& alignment,
                                   sb::SpanLog* spans, PassResult& out) {
  sb::Span span(spans, "setup");
  const double start = sb::steady_seconds();
  auto setup = std::make_unique<Setup>(alignment, spec.backend);
  out.setup_s.push_back(sb::steady_seconds() - start);
  out.compress_s.push_back(setup->compress_s());
  return setup;
}

/// Sets up, runs one pass on that set-up, then sets up and tears down
/// kSetupReps - 1 more times for the set-up median. Peak RSS is read before
/// the extra set-ups, so it is what one set-up and its pass used.
PassResult run_pass(const WorkloadSpec& spec, const Alignment& alignment,
                    const Tree& truth, const Args& args, int count,
                    sb::SpanLog* spans, bool capture) {
  PassResult out;
  std::unique_ptr<Setup> setup = timed_setup(spec, alignment, spans, out);
  out.workers = setup->workers();
  if (spec.jobs) {
    static int jobs_dirs = 0;
    const std::string dir = args.out + "/jobs-" + std::to_string(::getpid()) +
                            "-" + std::to_string(jobs_dirs++);
    run_jobs(*setup, truth, args.seed, count, dir, spans, capture, out.pass);
  } else {
    run_searches(*setup, truth, args.seed, count, spans, capture, out.pass);
  }
  out.backend = setup->finish();
  out.peak_rss_mb = read_peak_rss_mb();
  if (out.backend.faulted()) {
    std::fprintf(stderr, "searchbench: backend faults (dropped %llu, errors "
                         "%llu, deaths %llu, fallbacks %llu, failed rounds %llu)\n",
                 static_cast<unsigned long long>(out.backend.frames_dropped),
                 static_cast<unsigned long long>(out.backend.frame_errors),
                 static_cast<unsigned long long>(out.backend.peer_deaths),
                 static_cast<unsigned long long>(out.backend.serial_fallbacks),
                 static_cast<unsigned long long>(out.backend.rounds_failed));
  }
  for (int r = 1; r < kSetupReps; ++r) {
    setup.reset();
    timed_setup(spec, alignment, spans, out)->finish();
  }
  return out;
}

/// Operations attempted and failed in a pass: every search or job counts
/// once; it fails on a check mismatch, a job not kDone, or any backend fault
/// during its pass.
void count_outcomes(const PassResult& r, int count, std::uint64_t& attempted,
                    std::uint64_t& failed) {
  attempted += static_cast<std::uint64_t>(count);
  std::uint64_t bad = r.pass.failed;
  for (const TreeCheck& c : r.pass.checks) bad += c.ok ? 0 : 1;
  failed += r.backend.faulted() ? static_cast<std::uint64_t>(count) : bad;
}

/// The best tree of a pass: its searches and jobs are jumbles of one
/// alignment, and the best of them is the answer.
TreeCheck best_of_pass(const Pass& pass) {
  TreeCheck best;
  for (std::size_t i = 0; i < pass.checks.size(); ++i) {
    if (i == 0 || pass.checks[i].lnl > best.lnl) best = pass.checks[i];
  }
  return best;
}

int run_benchmark(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "searchbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.out);

  std::printf("searchbench %s  seed %llu (dataset seed %llu, first search seed "
              "%llu)  trace %d\n",
              spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(dataset_seed(args.seed)),
              static_cast<unsigned long long>(
                  search_seed(args.seed, 0)),
              args.trace ? 1 : 0);
  std::printf("host: nproc %u  simd %s  tier %s\n",
              std::thread::hardware_concurrency(),
              simd::backend_name(simd::active_backend()),
              simd::tier_name(simd::active_tier()));
  std::printf("problem: %d taxa x %zu sites, F84 ts/tv 2, uniform rates, %s, "
              "%d %s per pass\n",
              spec->taxa, spec->sites,
              spec->backend == Backend::kSerial
                  ? "serial"
                  : (spec->backend == Backend::kThreads ? "3 thread workers"
                                                        : "3 socket workers"),
              spec->searches, spec->jobs ? "jobs" : "searches");
  std::fflush(stdout);

  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(
      spec->taxa, spec->sites, dataset_seed(args.seed), &truth);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  if (!args.trace) {
    // Untraced: passes over the same inputs until the next one would run
    // past --seconds (at least one).
    std::vector<double> search_s, cpu_s, setup_s, jobs_per_min;
    std::vector<PassResult> results;
    const double start = sb::steady_seconds();
    do {
      PassResult r = run_pass(*spec, alignment, truth, args, spec->searches,
                              nullptr, false);
      count_outcomes(r, spec->searches, attempted, failed);
      // A pass is a fixed set of inputs: its searches (job latencies) are
      // averaged.
      search_s.push_back(sb::mean(r.pass.search_s));
      cpu_s.push_back(sb::mean(r.pass.cpu_s));
      setup_s.push_back(sb::median(r.setup_s));
      jobs_per_min.push_back(static_cast<double>(spec->searches) /
                             r.pass.makespan_s * 60.0);
      results.push_back(std::move(r));
    } while (sb::steady_seconds() - start +
                 results.back().pass.makespan_s <= args.seconds);

    const Pass& first = results.front().pass;
    std::vector<Metric> e2e = {
        {"search_s", sb::median(search_s), "s"},
        {"cpu_s", sb::median(cpu_s), "s"},
        {"setup_s", sb::median(setup_s), "s"},
        {"peak_rss_mb", results.front().peak_rss_mb, "MB"},
    };
    std::vector<Metric> more = {
        {"best_lnl", best_of_pass(first).lnl, "lnL"},
        {"rf_to_truth", static_cast<double>(best_of_pass(first).rf), "splits"},
        {"failed_share",
         static_cast<double>(failed) / static_cast<double>(attempted), "share"},
        {"passes", static_cast<double>(results.size()), "count"},
        {"tasks_per_pass", static_cast<double>(sb::tally_rounds(first.rounds).tasks),
         "count"},
    };
    if (spec->jobs) {
      more.push_back({"jobs_per_min", sb::median(jobs_per_min), "1/min"});
      more.push_back({"job_latency_p50_s", sb::median(first.search_s), "s"});
    }
    std::printf("\nper %s: ", spec->jobs ? "job latency" : "search");
    for (double s : first.search_s) std::printf("%.3f ", s);
    std::printf("s\n");
    print_table("end-to-end (untraced)", e2e);
    print_table("quality and failures", more);
    print_json(failed == 0, attempted, failed, e2e);
    return 0;
  }

  // Traced run: an untraced pass of one search (job batch) for reference,
  // then the same inputs with spans, task capture and the Vfs decorator,
  // then the offline replay.
  const int count = spec->jobs ? spec->searches : 1;
  PassResult plain = run_pass(*spec, alignment, truth, args, count, nullptr, false);
  count_outcomes(plain, count, attempted, failed);

  sb::SpanLog spans;
  const auto fill_before = obs::MetricsRegistry::process().snapshot();
  PassResult traced = run_pass(*spec, alignment, truth, args, count, &spans, true);
  const auto fill_after = obs::MetricsRegistry::process().snapshot();
  count_outcomes(traced, count, attempted, failed);

  Setup replay_setup(alignment, Backend::kSerial);
  Replay rp;
  {
    sb::Span span(&spans, "replay");
    rp = replay(replay_setup, traced.pass.captured, &spans);
  }

  double batch_count = 0.0, batch_sum = 0.0;
  for (const auto& h : fill_after.histograms) {
    if (h.name != "kernel.batch_fill") continue;
    batch_count += static_cast<double>(h.count);
    batch_sum += h.sum;
  }
  for (const auto& h : fill_before.histograms) {
    if (h.name != "kernel.batch_fill") continue;
    batch_count -= static_cast<double>(h.count);
    batch_sum -= h.sum;
  }

  const Pass& p = traced.pass;
  const sb::RoundTally t = sb::tally_rounds(p.rounds);
  const double tasks = static_cast<double>(std::max<std::uint64_t>(t.tasks, 1));
  const double untraced_s = spec->jobs ? plain.pass.makespan_s
                                       : sb::median(plain.pass.search_s);
  const double traced_s = spec->jobs ? p.makespan_s : sb::median(p.search_s);
  const double idle_s = traced_s - t.round_s;
  const BackendStats& b = traced.backend;
  const std::vector<Metric> layers = {
      {"search.rounds", static_cast<double>(t.rounds), "count"},
      {"search.tasks", static_cast<double>(t.tasks), "count"},
      {"search.insertion_tasks", static_cast<double>(t.insertion_tasks), "count"},
      {"search.full_tasks", static_cast<double>(t.full_tasks), "count"},
      {"search.tasks_per_round",
       static_cast<double>(t.tasks) / static_cast<double>(std::max<std::uint64_t>(t.rounds, 1)),
       "count"},
      {"search.master_s", idle_s, "s"},
      {"search.round_s", t.round_s, "s"},
      {"search.trees_per_s", static_cast<double>(t.tasks) / traced_s, "1/s"},
      {"search.task_bytes", static_cast<double>(t.bytes) / tasks, "bytes"},
      {"codec.task_encode_us", rp.encode_us, "us"},
      {"codec.task_decode_us", rp.decode_us, "us"},
      {"codec.frame_us", rp.frame_us, "us"},
      {"likelihood.full_task_ms", rp.full_ms, "ms"},
      {"likelihood.insertion_task_ms", rp.insertion_ms, "ms"},
      {"likelihood.clv_per_full_task", rp.clv_per_full, "count"},
      {"likelihood.clv_per_insertion_task", rp.clv_per_insertion, "count"},
      {"likelihood.edge_captures_per_full_task", rp.captures_per_full, "count"},
      {"likelihood.edge_evals_per_full_task", rp.evals_per_full, "count"},
      {"likelihood.kernel_share", rp.kernel_share, "share"},
      {"likelihood.transition_hit_rate", rp.transition_hit_rate, "share"},
      {"likelihood.batch_fill", batch_count > 0 ? batch_sum / batch_count : 0.0,
       "count"},
      {"parallel.worker_busy_share", sb::worker_busy_share(t, traced.workers),
       "share"},
      {"parallel.dispatch_overhead_us_per_task",
       sb::dispatch_overhead_us_per_task(t, traced.workers), "us"},
      {"parallel.task_cpu_s", t.task_cpu_s, "s"},
      {"parallel.rearrange_cpu_share",
       t.task_cpu_s > 0 ? t.rearrange_cpu_s / t.task_cpu_s : 0.0, "share"},
      {"parallel.requeues", static_cast<double>(b.requeues), "count"},
      {"parallel.delinquencies", static_cast<double>(b.delinquencies), "count"},
      {"parallel.serial_fallbacks", static_cast<double>(b.serial_fallbacks), "count"},
      {"parallel.rounds_failed", static_cast<double>(b.rounds_failed), "count"},
      {"comm.messages_per_task", static_cast<double>(b.messages) / tasks, "count"},
      {"comm.bytes_per_task", static_cast<double>(b.bytes) / tasks, "bytes"},
      {"comm.frames_dropped", static_cast<double>(b.frames_dropped), "count"},
      {"comm.frame_errors", static_cast<double>(b.frame_errors), "count"},
      {"comm.peer_deaths", static_cast<double>(b.peer_deaths), "count"},
      {"durable.commits", static_cast<double>(p.vfs.commits), "count"},
      {"durable.bytes_written", static_cast<double>(p.vfs.bytes_written), "bytes"},
      {"durable.write_s", p.vfs.write_s, "s"},
      {"service.gate_busy_s", spec->jobs ? t.round_s : 0.0, "s"},
      {"service.pool_idle_s", spec->jobs ? idle_s : 0.0, "s"},
      {"service.rejected",
       static_cast<double>(p.scheduler.rejected_full + p.scheduler.rejected_draining),
       "count"},
      {"service.retries", static_cast<double>(p.scheduler.retries), "count"},
      {"service.jobs_per_min",
       spec->jobs ? static_cast<double>(count) / p.makespan_s * 60.0 : 0.0, "1/min"},
      {"seq.patterns", static_cast<double>(replay_setup.data().num_patterns()), "count"},
      {"seq.compress_ms", sb::median(traced.compress_s) * 1e3, "ms"},
      {"quality.best_lnl", best_of_pass(p).lnl, "lnL"},
      {"quality.rf_to_truth", static_cast<double>(best_of_pass(p).rf), "splits"},
      {"trace.untraced_search_s", untraced_s, "s"},
      {"trace.overhead_s", traced_s - untraced_s, "s"},
      {"trace.overhead_share", (traced_s - untraced_s) / untraced_s, "share"},
  };
  print_table("per-layer (traced run)", layers);

  std::printf("\nspans (benchmark side): name, count, total s, self s\n");
  for (const auto& [name, totals] : spans.totals()) {
    std::printf("  %-24s %8llu %12.4f %12.4f\n", name.c_str(),
                static_cast<unsigned long long>(totals.count), totals.total_s,
                totals.self_s);
  }
  const std::string trace_path = args.out + "/trace-" + spec->name + "-seed" +
                                 std::to_string(args.seed) + ".json";
  if (spans.write_chrome_json(trace_path)) {
    std::printf("trace written to %s\n", trace_path.c_str());
  } else {
    std::fprintf(stderr, "searchbench: could not write %s\n", trace_path.c_str());
  }
  print_json(failed == 0, attempted, failed, layers);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string(argv[1]) == "--self-test") return run_self_test();
    return run_benchmark(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "searchbench: %s\n", e.what());
    return 1;
  }
}
