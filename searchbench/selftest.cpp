// Self-test of the benchmark's metric arithmetic: a scripted fake runner on a
// scripted clock, with known per-task costs and worker count, checks round
// classification, busy share, dispatch overhead and master time; a fake Vfs
// checks the durable counts through a real checkpoint commit; and the median
// and mean are checked on small inputs. Prints one line per check and
// returns nonzero if any check failed.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "bench.hpp"
#include "durable/checkpoint_store.hpp"

namespace {

using namespace fdml;
namespace sb = searchbench;

double g_now = 0.0;
double fake_clock() { return g_now; }

/// Every round takes `round_s` of wall; every insertion task costs 1 ms and
/// every full task 10 ms of CPU, spread over `workers` workers.
class FakeRunner final : public TaskRunner {
 public:
  FakeRunner(int workers, double round_s) : workers_(workers), round_s_(round_s) {}

  RoundOutcome run_round(const std::vector<TreeTask>& tasks) override {
    RoundOutcome outcome;
    for (const TreeTask& task : tasks) {
      TaskStat stat;
      stat.task_id = task.task_id;
      stat.cpu_seconds = task.focus_taxon >= 0 ? 0.001 : 0.010;
      stat.bytes = 100;
      stat.worker = static_cast<int>(task.task_id % static_cast<std::uint64_t>(workers_));
      outcome.stats.push_back(stat);
    }
    g_now += round_s_;
    return outcome;
  }
  int worker_count() const override { return workers_; }

 private:
  int workers_;
  double round_s_;
};

/// In-memory filesystem.
class FakeVfs final : public Vfs {
 public:
  void write_file(const std::string& path, const std::uint8_t* data,
                  std::size_t size) override {
    files_[path].assign(data, data + size);
  }
  void append_file(const std::string& path, const std::uint8_t* data,
                   std::size_t size) override {
    files_[path].insert(files_[path].end(), data, data + size);
  }
  std::optional<std::vector<std::uint8_t>> read_file(
      const std::string& path) override {
    const auto it = files_.find(path);
    if (it == files_.end()) return std::nullopt;
    return it->second;
  }
  void rename_file(const std::string& from, const std::string& to) override {
    files_[to] = files_.at(from);
    files_.erase(from);
  }
  void remove_file(const std::string& path) override { files_.erase(path); }
  bool exists(const std::string& path) override { return files_.count(path) != 0; }
  std::vector<std::string> list_dir(const std::string& dir) override {
    std::vector<std::string> names;
    const std::string prefix = dir.empty() || dir == "." ? "" : dir + "/";
    for (const auto& [path, bytes] : files_) {
      if (path.rfind(prefix, 0) == 0 &&
          path.find('/', prefix.size()) == std::string::npos) {
        names.push_back(path.substr(prefix.size()));
      }
    }
    return names;
  }
  void sync_dir(const std::string&) override {}

 private:
  std::map<std::string, std::vector<std::uint8_t>> files_;
};

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  const bool ok = std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
  std::printf("self-test %-34s %s (got %.9g, want %.9g)\n", what,
              ok ? "ok" : "FAILED", got, want);
  if (!ok) ++g_failures;
}

TreeTask task(std::uint64_t id, std::uint64_t round, int focus) {
  TreeTask t;
  t.task_id = id;
  t.round_id = round;
  t.focus_taxon = focus;
  return t;
}

void check_runner_math() {
  // One search: initial (1 full), insertion (4 focus), winner (1 full),
  // rearrangement (6 full). Each round is 0.1 s of wall on 2 workers; the
  // master spends 0.05 s between rounds.
  constexpr int kWorkers = 2;
  g_now = 10.0;
  FakeRunner fake(kWorkers, 0.1);
  sb::TimingRunner timed(fake, fake_clock, fake_clock);
  const double start = g_now;
  std::uint64_t id = 0;
  const std::vector<std::vector<TreeTask>> rounds = {
      {task(id++, 0, -1)},
      {task(id++, 1, 3), task(id++, 1, 3), task(id++, 1, 3), task(id++, 1, 3)},
      {task(id++, 2, -1)},
      {task(id++, 3, -1), task(id++, 3, -1), task(id++, 3, -1),
       task(id++, 3, -1), task(id++, 3, -1), task(id++, 3, -1)},
  };
  for (const auto& round : rounds) {
    timed.run_round(round);
    g_now += 0.05;
  }
  const double search_s = g_now - timed.first_start();
  const sb::RoundTally t = sb::tally_rounds(timed.rounds());

  expect_near("first dispatch", timed.first_start(), start);
  expect_near("rounds", static_cast<double>(t.rounds), 4);
  expect_near("tasks", static_cast<double>(t.tasks), 12);
  expect_near("insertion tasks", static_cast<double>(t.insertion_tasks), 4);
  expect_near("full tasks", static_cast<double>(t.full_tasks), 8);
  expect_near("rearrangement tasks", static_cast<double>(t.rearrange_tasks), 6);
  expect_near("winner kind",
              static_cast<double>(timed.rounds()[2].kind == sb::RoundKind::kWinner), 1);
  expect_near("initial kind",
              static_cast<double>(timed.rounds()[0].kind == sb::RoundKind::kInitial), 1);
  expect_near("round wall", t.round_s, 0.4);
  expect_near("master time", search_s - t.round_s, 0.2);
  // CPU: 8 full x 10 ms + 4 insertion x 1 ms = 84 ms over 2 x 0.4 s.
  expect_near("task cpu", t.task_cpu_s, 0.084);
  expect_near("rearrangement cpu", t.rearrange_cpu_s, 0.060);
  expect_near("busy share", sb::worker_busy_share(t, kWorkers), 0.084 / 0.8);
  expect_near("dispatch overhead us/task",
              sb::dispatch_overhead_us_per_task(t, kWorkers),
              (0.8 - 0.084) / 12 * 1e6);
  expect_near("task bytes", static_cast<double>(t.bytes), 1200);
}

void check_median() {
  expect_near("median odd", sb::median({5.0, 1.0, 3.0}), 3.0);
  expect_near("median even", sb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  expect_near("median single", sb::median({7.0}), 7.0);
  expect_near("mean", sb::mean({1.0, 2.0, 6.0}), 3.0);
}

void check_vfs() {
  // Two checkpoint generations through the real store over a fake disk:
  // each commit writes the generation file and the base file atomically
  // (write tmp + rename), so 2 commits = 4 renames and 4 writes.
  FakeVfs disk;
  g_now = 0.0;
  sb::TimingVfs vfs(disk, fake_clock);
  CheckpointStore store("ckpt/run.ckpt", CheckpointStoreOptions{}, &vfs);
  const std::vector<std::uint8_t> payload(100, 7);
  store.commit(1, 0, payload);
  store.commit(1, 0, payload);
  const sb::VfsTally t = vfs.tally();
  expect_near("vfs commits", static_cast<double>(t.commits), 4);
  expect_near("vfs writes", static_cast<double>(t.writes), 4);
  const auto file = disk.read_file("ckpt/run.ckpt");
  const double frame = file ? static_cast<double>(file->size()) : 0.0;
  expect_near("vfs bytes", static_cast<double>(t.bytes_written), 4 * frame);
  expect_near("vfs frame holds payload", frame > 100 ? 1 : 0, 1);
  expect_near("vfs write time on fake clock", t.write_s, 0.0);
}

}  // namespace

int run_self_test() {
  check_runner_math();
  check_median();
  check_vfs();
  std::printf("self-test %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
