// Search-quality gate: what the search finds, per seed, on data with a known
// generating tree.
//
// A change to search semantics or to optimizer order moves the bits of
// every tree, so bit-for-bit references cannot judge it. This bench judges
// the answer instead: for s = 1..10 it runs a serial StepwiseSearch (jumble
// seed 2s-1) on make_paper_like_dataset(24, 600, 2s-1) and on
// make_paper_like_dataset(50, 300, 2s-1), and reports per seed the final
// lnL, the RF distance to the generating tree, trees evaluated, rounds and
// accepted rearrangements.
//
//   bench_search_quality [--json=OUT.json] [--check=BASELINE.json]
//
// --json writes one JSON line per seed. --check exits 1 if any seed's lnL
// is more than 1e-3 below the baseline file's or its RF is higher; trees,
// rounds and accepts are reported next to the baseline's but not gated.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fdml.hpp"
#include "json_lines.hpp"

namespace {

using namespace fdml;
using bench::scan_number;
using bench::scan_string;

constexpr int kSeeds = 10;
constexpr double kLnlTolerance = 1e-3;

struct DataSet {
  int taxa;
  std::size_t sites;
};
constexpr DataSet kSets[] = {{24, 600}, {50, 300}};

struct Row {
  std::string set;
  int seed = 0;
  double lnl = 0.0;
  int rf = 0;
  long long trees = 0;
  long long rounds = 0;
  long long accepted = 0;
};

Row run_one(const DataSet& set, int seed) {
  Tree truth(3);
  const Alignment alignment = make_paper_like_dataset(
      set.taxa, set.sites, static_cast<std::uint64_t>(seed), &truth);
  const PatternAlignment data(alignment);
  const SubstModel model = SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
  SearchOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  SerialTaskRunner runner(data, model, RateModel::uniform());
  const SearchResult result = StepwiseSearch(data, options).run(runner);

  Row row;
  row.set = std::to_string(set.taxa) + "x" + std::to_string(set.sites);
  row.seed = seed;
  row.lnl = result.best_log_likelihood;
  row.rf = robinson_foulds(tree_from_newick(result.best_newick, data.names()), truth);
  row.trees = static_cast<long long>(result.trees_evaluated);
  row.rounds = static_cast<long long>(result.trace.rounds.size());
  row.accepted = static_cast<long long>(result.rearrangements_accepted);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\"schema\": \"fdml-bench-quality-v1\", \"simd\": \""
      << simd::backend_name(simd::active_backend()) << "\"}\n";
  char line[256];
  for (const Row& r : rows) {
    std::snprintf(line, sizeof(line),
                  "{\"set\": \"%s\", \"seed\": %d, \"lnl\": %.6f, \"rf\": %d, "
                  "\"trees\": %lld, \"rounds\": %lld, \"accepted\": %lld}\n",
                  r.set.c_str(), r.seed, r.lnl, r.rf, r.trees, r.rounds,
                  r.accepted);
    out << line;
  }
}

/// Returns true if no seed lost more than kLnlTolerance lnL or gained RF
/// against the baseline file.
bool check_against_baseline(const std::string& path, const std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_search_quality: cannot read baseline %s\n",
                 path.c_str());
    return false;
  }
  std::printf("\n%-7s %4s %10s %6s %8s %8s %8s  %s\n", "set", "seed",
              "dlnL", "dRF", "dtrees", "drounds", "daccept", "verdict");
  bool ok = true;
  int checked = 0;
  std::string line;
  while (std::getline(in, line)) {
    std::string set;
    double seed = 0, lnl = 0, rf = 0, trees = 0, rounds = 0, accepted = 0;
    if (!scan_string(line, "set", set) || !scan_number(line, "seed", seed) ||
        !scan_number(line, "lnl", lnl) || !scan_number(line, "rf", rf) ||
        !scan_number(line, "trees", trees) ||
        !scan_number(line, "rounds", rounds) ||
        !scan_number(line, "accepted", accepted)) {
      continue;  // header line
    }
    const Row* now = nullptr;
    for (const Row& r : rows) {
      if (r.set == set && r.seed == static_cast<int>(seed)) now = &r;
    }
    if (now == nullptr) {
      std::fprintf(stderr, "bench_search_quality: baseline row %s seed %d not run\n",
                   set.c_str(), static_cast<int>(seed));
      ok = false;
      continue;
    }
    ++checked;
    const bool lnl_ok = now->lnl >= lnl - kLnlTolerance;
    const bool rf_ok = now->rf <= static_cast<int>(rf);
    std::printf("%-7s %4d %+10.1e %+6d %+8lld %+8lld %+8lld  %s\n", set.c_str(),
                now->seed, now->lnl - lnl, now->rf - static_cast<int>(rf),
                now->trees - static_cast<long long>(trees),
                now->rounds - static_cast<long long>(rounds),
                now->accepted - static_cast<long long>(accepted),
                lnl_ok && rf_ok ? "ok" : (lnl_ok ? "RF WORSE" : "LNL WORSE"));
    ok = ok && lnl_ok && rf_ok;
  }
  if (checked == 0) {
    std::fprintf(stderr, "bench_search_quality: no rows in baseline %s\n",
                 path.c_str());
    return false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string json_path = args.get("json", "");
  const std::string check_path = args.get("check", "");

  std::printf("Serial stepwise search vs the generating tree (%s kernels)\n",
              simd::backend_name(simd::active_backend()));
  std::printf("%-7s %4s %16s %4s %8s %7s %8s %8s\n", "set", "seed", "lnL", "RF",
              "trees", "rounds", "accepted", "time");
  std::vector<Row> rows;
  for (const DataSet& set : kSets) {
    for (int s = 1; s <= kSeeds; ++s) {
      Timer timer;
      rows.push_back(run_one(set, 2 * s - 1));
      const Row& r = rows.back();
      std::printf("%-7s %4d %16.6f %4d %8lld %7lld %8lld %7.2fs\n", r.set.c_str(),
                  r.seed, r.lnl, r.rf, r.trees, r.rounds, r.accepted,
                  timer.seconds());
      std::fflush(stdout);
    }
  }

  if (!json_path.empty()) {
    write_json(json_path, rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!check_path.empty()) {
    if (!check_against_baseline(check_path, rows)) {
      std::printf("FAIL: search quality fell below %s\n", check_path.c_str());
      return 1;
    }
    std::printf("ok: no seed lost more than %g lnL or gained RF against %s\n",
                kLnlTolerance, check_path.c_str());
  }
  return 0;
}
