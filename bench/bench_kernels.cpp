// Kernel microbenchmarks: the primitives whose costs drive everything else —
// transition matrices, CLV updates, edge likelihood evaluation, Newton
// branch optimization, pattern compression, Fitch scoring, topology hashing.
// These numbers calibrate the cluster simulator (see WorkloadModel) and
// document where the cycles go.
//
// Two modes:
//   bench_kernels                 google-benchmark suite (plus the sweep)
//   bench_kernels --json=OUT.json --check=BASELINE.json [--tolerance=0.2]
//     SIMD backend sweep only: drives every compiled kernel backend over
//     identical SoA buffers, reports patterns/s + GFLOP/s + speedup vs
//     scalar, writes a line-oriented JSON snapshot, and (with --check)
//     fails if throughput regressed against a baseline snapshot:
//       - speedup_vs_scalar of each vector backend may not drop more than
//         `tolerance` relative to the baseline (host-portable signal), and
//         the widest backend must stay >= 2x scalar on clv_combine and
//         edge_evaluate (the kernel layer's headline contract);
//       - with --check-absolute, raw patterns/s is also compared (only
//         meaningful when baseline and current run share a host);
//       - the disabled-tracing overhead contract is enforced: constructing
//         and destroying an obs::Span with tracing off must cost < 2% of
//         one edge_evaluate call (baseline-independent, measured live).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fdml.hpp"
#include "likelihood/kernels.hpp"
#include "util/aligned.hpp"
#include "util/simd.hpp"

namespace {

using namespace fdml;

const SubstModel& f84_model() {
  static const SubstModel model =
      SubstModel::f84_from_tstv({0.28, 0.21, 0.26, 0.25}, 2.0);
  return model;
}

// ---------------------------------------------------------------------------
// SIMD backend sweep
// ---------------------------------------------------------------------------

struct SweepResult {
  std::string kernel;
  std::string backend;
  double patterns_per_s = 0.0;
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

using BenchClock = std::chrono::steady_clock;

// One timing cell of the sweep: a kernel body at a fixed backend. Cells are
// calibrated to a fixed window, then sampled round-robin across *all* cells
// for several rounds, keeping the per-cell minimum. Interleaving matters:
// on busy shared hosts noise is correlated in time, so measuring scalar
// first and AVX2 seconds later would put them in different noise regimes
// and swing the speedup ratios by tens of percent. Spreading every cell's
// samples across the whole run and taking the least-interrupted one makes
// the ratios reproducible.
struct TimingCell {
  const char* kernel;
  const char* backend;
  double flops_per_cat_pattern;
  std::function<void()> body;
  std::size_t iters = 4;
  double best_secs = 1e300;
};

void time_cells(std::vector<TimingCell>& cells) {
  for (TimingCell& cell : cells) {
    cell.body();  // warm caches and page in buffers
    for (;;) {
      const auto start = BenchClock::now();
      for (std::size_t i = 0; i < cell.iters; ++i) cell.body();
      const double s =
          std::chrono::duration<double>(BenchClock::now() - start).count();
      if (s >= 0.03) break;
      cell.iters *= 4;
    }
  }
  constexpr int kRounds = 7;
  for (int round = 0; round < kRounds; ++round) {
    for (TimingCell& cell : cells) {
      const auto start = BenchClock::now();
      for (std::size_t i = 0; i < cell.iters; ++i) cell.body();
      const double s =
          std::chrono::duration<double>(BenchClock::now() - start).count();
      const double per_call = s / static_cast<double>(cell.iters);
      if (per_call < cell.best_secs) cell.best_secs = per_call;
    }
  }
}

// Single-cell convenience wrapper (used by the full-tree context sweep).
template <class F>
double seconds_per_call(F&& body) {
  std::vector<TimingCell> cells(1);
  cells[0].kernel = "";
  cells[0].backend = "";
  cells[0].flops_per_cat_pattern = 0.0;
  cells[0].body = std::forward<F>(body);
  time_cells(cells);
  return cells[0].best_secs;
}

// Sweep geometry: L1/L2-resident planes so the numbers measure arithmetic,
// not DRAM. Matches a mid-size alignment (e.g. 50 taxa x 1858 sites
// compresses to ~1000 patterns).
constexpr std::size_t kSweepPatterns = 512;  // multiple of kPatternPad
constexpr std::size_t kSweepCats = 4;

const SweepResult* find_result(const std::vector<SweepResult>& results,
                               const std::string& kernel,
                               const std::string& backend);

std::vector<SweepResult> run_backend_sweep() {
  const std::size_t padded = kSweepPatterns;
  const std::size_t plane = 4 * padded;

  // Deterministic positive operands (CLVs are probabilities).
  Rng rng(42);
  AlignedVector<double> a_planes(kSweepCats * plane);
  AlignedVector<double> b_planes(kSweepCats * plane);
  AlignedVector<double> out(kSweepCats * plane);
  AlignedVector<double> coeff(kSweepCats * plane);
  AlignedVector<double> site(padded), site_d1(padded), site_d2(padded);
  for (auto& x : a_planes) x = rng.uniform(0.05, 1.0);
  for (auto& x : b_planes) x = rng.uniform(0.05, 1.0);
  std::vector<std::uint8_t> codes(padded);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.range(1, 15));

  Mat4 pa{};
  Mat4 pb{};
  f84_model().transition(0.07, pa);
  f84_model().transition(0.19, pb);
  double tip_tab_a[64];
  double tip_tab_b[64];
  for (int s = 0; s < 4; ++s) {
    for (int code = 0; code < 16; ++code) {
      double ta = 0.0, tb = 0.0;
      for (int j = 0; j < 4; ++j) {
        if ((code >> j) & 1) {
          ta += pa[s][j];
          tb += pb[s][j];
        }
      }
      tip_tab_a[s * 16 + code] = ta;
      tip_tab_b[s * 16 + code] = tb;
    }
  }
  const Vec4 lam = f84_model().eigenvalues();
  double e[4], lam_arr[4];
  for (int k = 0; k < 4; ++k) {
    e[k] = std::exp(lam[k] * 0.1);
    lam_arr[k] = lam[k];
  }
  const Mat4& left = f84_model().left_eigenvectors();
  const Mat4& right = f84_model().right_eigenvectors();
  const Vec4& pi = f84_model().frequencies();
  Mat4 pr{};
  for (int k = 0; k < 4; ++k)
    for (int i = 0; i < 4; ++i) pr[k][i] = pi[i] * right[i][k];

  // Multi-edge capture operands: kBatchEdges candidate edges whose a/b
  // planes cycle through the category planes above (distinct pointers per
  // edge, cache-resident like a real candidate chunk).
  constexpr std::size_t kBatchEdges = 16;
  AlignedVector<double> batch_coeff(kBatchEdges * plane);
  std::vector<const double*> batch_a(kBatchEdges);
  std::vector<const double*> batch_b(kBatchEdges);
  std::vector<double*> batch_out(kBatchEdges);
  for (std::size_t k = 0; k < kBatchEdges; ++k) {
    batch_a[k] = a_planes.data() + (k % kSweepCats) * plane;
    batch_b[k] = b_planes.data() + ((k + 1) % kSweepCats) * plane;
    batch_out[k] = batch_coeff.data() + k * plane;
  }

  // Build every (kernel, backend) timing cell up front, then sample them
  // interleaved (see time_cells). Nominal FLOPs per (category, pattern)
  // match the engine's accounting: internal-internal combine 68, tip-tip
  // 12, capture 40, evaluate-with-derivs 24.
  std::vector<TimingCell> cells;
  for (const KernelTable* table : compiled_kernel_tables()) {
    if (!simd::cpu_supports(table->backend)) continue;

    // clv_combine, internal x internal (the deep-tree steady state).
    cells.push_back({"clv_combine", table->name, 68.0, [=, &a_planes,
                                                        &b_planes, &out] {
                       ClvOperand ia, ib;
                       for (std::size_t cat = 0; cat < kSweepCats; ++cat) {
                         ia.planes = a_planes.data() + cat * plane;
                         ia.p = &pa[0][0];
                         ib.planes = b_planes.data() + cat * plane;
                         ib.p = &pb[0][0];
                         table->clv_combine(0, padded, padded, ia, ib,
                                            out.data() + cat * plane);
                       }
                     }});

    // clv_combine, tip x tip (lookup-table kernel; cherry nodes).
    cells.push_back({"clv_combine_tip", table->name, 12.0,
                     [=, &a_planes, &b_planes, &out, &codes, &tip_tab_a,
                      &tip_tab_b] {
                       ClvOperand ia, ib;
                       for (std::size_t cat = 0; cat < kSweepCats; ++cat) {
                         ia.planes = a_planes.data();
                         ia.codes = codes.data();
                         ia.tip_tab = tip_tab_a;
                         ib.planes = b_planes.data();
                         ib.codes = codes.data();
                         ib.tip_tab = tip_tab_b;
                         table->clv_combine(0, padded, padded, ia, ib,
                                            out.data() + cat * plane);
                       }
                     }});

    // edge_capture: eigen-coefficient projection.
    cells.push_back({"edge_capture", table->name, 40.0,
                     [=, &a_planes, &b_planes, &pr, &left, &coeff] {
                       for (std::size_t cat = 0; cat < kSweepCats; ++cat) {
                         table->edge_capture(padded,
                                             a_planes.data() + cat * plane,
                                             b_planes.data() + cat * plane,
                                             &pr[0][0], &left[0][0], 0.25,
                                             coeff.data() + cat * plane);
                       }
                     }});

    // edge_evaluate: the Newton inner loop's per-category derivative dots
    // (s, s', s''). No weights, so no category runs the finishing step:
    // the cell times the per-category work the tracked baseline in
    // BENCH_kernels.json was measured on.
    cells.push_back({"edge_evaluate", table->name, 24.0,
                     [=, &coeff, &e, &lam_arr, &site, &site_d1, &site_d2] {
                       for (std::size_t cat = 0; cat < kSweepCats; ++cat) {
                         table->edge_derivatives(
                             padded, coeff.data() + cat * plane, e, lam_arr,
                             /*accumulate=*/cat != 0, /*weights=*/nullptr,
                             site.data(), site_d1.data(), site_d2.data());
                       }
                     }});

    // batch_edge_evaluate: the multi-edge capture behind BatchEdgeEvaluator —
    // kBatchEdges coefficient sets projected per call while the transition
    // rows stay hot. Reported patterns/s is per-call (one pattern sweep
    // covering all edges), so the interesting number is the vs-scalar ratio.
    cells.push_back(
        {"batch_edge_evaluate", table->name, 40.0 * kBatchEdges,
         [=, &batch_a, &batch_b, &batch_out, &pr, &left] {
           for (std::size_t cat = 0; cat < kSweepCats; ++cat) {
             table->edge_capture_multi(padded, kBatchEdges, batch_a.data(),
                                       batch_b.data(), &pr[0][0], &left[0][0],
                                       0.25, batch_out.data());
           }
         }});
  }
  time_cells(cells);

  std::vector<SweepResult> results;
  const double pats = static_cast<double>(padded);
  for (const TimingCell& cell : cells) {
    SweepResult res;
    res.kernel = cell.kernel;
    res.backend = cell.backend;
    res.patterns_per_s = pats / cell.best_secs;
    res.gflops = static_cast<double>(kSweepCats) * pats *
                 cell.flops_per_cat_pattern / cell.best_secs / 1e9;
    if (res.backend == "scalar") {
      res.speedup_vs_scalar = 1.0;
    } else if (const SweepResult* scalar_row =
                   find_result(results, cell.kernel, "scalar")) {
      res.speedup_vs_scalar = res.patterns_per_s / scalar_row->patterns_per_s;
    }
    results.push_back(res);
  }
  return results;
}

// Full-tree likelihood per backend: end-to-end context for the kernel rows,
// including the transition-cache hit rate the run sustained.
void run_full_tree_sweep(std::vector<SweepResult>& results,
                         double* out_hit_rate) {
  const std::string saved = simd::backend_name(simd::active_backend());
  const Alignment alignment = make_paper_like_dataset(50, 1858, 7);
  const PatternAlignment data(alignment);

  // The engine captures its kernel table at construction, so one engine per
  // backend lets the bodies run interleaved without flipping the global
  // backend mid-measurement (same noise-correlation argument as the kernel
  // cells above).
  std::vector<std::unique_ptr<LikelihoodEngine>> engines;
  std::vector<Tree> trees;
  std::vector<TimingCell> cells;
  // Engines keep a reference to their attached tree; reserve so push_back
  // never relocates a Tree out from under an engine.
  trees.reserve(compiled_kernel_tables().size());
  for (const KernelTable* table : compiled_kernel_tables()) {
    if (!simd::cpu_supports(table->backend)) continue;
    if (!simd::set_backend(table->name)) continue;
    engines.push_back(std::make_unique<LikelihoodEngine>(
        data, f84_model(), RateModel::uniform()));
    Rng rng(3);
    trees.push_back(random_tree(50, rng));
    LikelihoodEngine* engine = engines.back().get();
    engine->attach(trees.back());
    cells.push_back({"full_tree", table->name, 0.0, [engine] {
                       engine->invalidate_all();
                       benchmark::DoNotOptimize(engine->log_likelihood());
                     },
                     /*iters=*/1});
  }
  simd::set_backend(saved);
  time_cells(cells);

  double scalar_pps = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SweepResult res;
    res.kernel = "full_tree";
    res.backend = cells[i].backend;
    res.patterns_per_s =
        static_cast<double>(data.num_patterns()) / cells[i].best_secs;
    const KernelCounters k = engines[i]->counters();
    res.gflops = k.kernel_ns > 0
                     ? static_cast<double>(engines[i]->flops()) /
                           static_cast<double>(k.kernel_ns)
                     : 0.0;
    if (res.backend == "scalar") {
      scalar_pps = res.patterns_per_s;
      res.speedup_vs_scalar = 1.0;
    } else if (scalar_pps > 0.0) {
      res.speedup_vs_scalar = res.patterns_per_s / scalar_pps;
    }
    *out_hit_rate = k.transition_hit_rate();
    results.push_back(res);
  }
}

void write_sweep_json(const std::string& path,
                      const std::vector<SweepResult>& results,
                      double hit_rate) {
  std::ofstream out(path);
  out << "{\"schema\": \"fdml-bench-kernels-v1\", \"patterns\": "
      << kSweepPatterns << ", \"categories\": " << kSweepCats
      << ", \"host_active_backend\": \""
      << simd::backend_name(simd::active_backend())
      << "\", \"transition_hit_rate\": " << hit_rate << "}\n";
  char line[512];
  for (const SweepResult& r : results) {
    std::snprintf(line, sizeof(line),
                  "{\"kernel\": \"%s\", \"backend\": \"%s\", "
                  "\"patterns_per_s\": %.6e, \"gflops\": %.4f, "
                  "\"speedup_vs_scalar\": %.4f}\n",
                  r.kernel.c_str(), r.backend.c_str(), r.patterns_per_s,
                  r.gflops, r.speedup_vs_scalar);
    out << line;
  }
}

// Minimal field scanners for the line-oriented snapshot format above (no
// JSON library in the build; the format is machine-written and rigid).
bool scan_string(const std::string& line, const char* key, std::string& out) {
  const std::string needle = std::string("\"") + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

bool scan_number(const std::string& line, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  out = std::strtod(line.c_str() + at + needle.size(), nullptr);
  return true;
}

const SweepResult* find_result(const std::vector<SweepResult>& results,
                               const std::string& kernel,
                               const std::string& backend) {
  for (const SweepResult& r : results) {
    if (r.kernel == kernel && r.backend == backend) return &r;
  }
  return nullptr;
}

/// Returns true if the current results hold up against the baseline file.
bool check_against_baseline(const std::string& path,
                            const std::vector<SweepResult>& results,
                            double tolerance, bool check_absolute) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_kernels: cannot read baseline %s\n",
                 path.c_str());
    return false;
  }
  bool ok = true;
  std::string line;
  while (std::getline(in, line)) {
    std::string kernel, backend;
    double base_pps = 0.0, base_speedup = 0.0;
    if (!scan_string(line, "kernel", kernel) ||
        !scan_string(line, "backend", backend) ||
        !scan_number(line, "patterns_per_s", base_pps)) {
      continue;  // header / context line
    }
    const SweepResult* now = find_result(results, kernel, backend);
    if (now == nullptr) {
      std::fprintf(stderr,
                   "bench_kernels: baseline has %s/%s but this build does not "
                   "(skipped)\n",
                   kernel.c_str(), backend.c_str());
      continue;
    }
    if (backend != "scalar" && scan_number(line, "speedup_vs_scalar", base_speedup)) {
      if (now->speedup_vs_scalar < (1.0 - tolerance) * base_speedup) {
        std::fprintf(stderr,
                     "REGRESSION %s/%s: speedup_vs_scalar %.2f < baseline "
                     "%.2f - %.0f%%\n",
                     kernel.c_str(), backend.c_str(), now->speedup_vs_scalar,
                     base_speedup, tolerance * 100.0);
        ok = false;
      }
    }
    if (check_absolute && now->patterns_per_s < (1.0 - tolerance) * base_pps) {
      std::fprintf(stderr,
                   "REGRESSION %s/%s: %.3e patterns/s < baseline %.3e - "
                   "%.0f%%\n",
                   kernel.c_str(), backend.c_str(), now->patterns_per_s,
                   base_pps, tolerance * 100.0);
      ok = false;
    }
  }

  // Headline contract, independent of the baseline's numbers: the widest
  // usable backend must hold >= 2x scalar on the two dominant kernels —
  // and, since the batched-evaluation work, on the end-to-end full_tree
  // number too (microkernel wins that evaporate in orchestration are the
  // exact regression this line exists to catch).
  std::string widest = "scalar";
  for (const SweepResult& r : results) {
    if (r.kernel == "clv_combine" && r.backend != "scalar") widest = r.backend;
  }
  if (widest != "scalar") {
    for (const char* kernel : {"clv_combine", "edge_evaluate", "full_tree"}) {
      const SweepResult* r = find_result(results, kernel, widest);
      if (r != nullptr && r->speedup_vs_scalar < 2.0) {
        std::fprintf(stderr,
                     "REGRESSION %s/%s: speedup_vs_scalar %.2f < required "
                     "2.0x\n",
                     kernel, widest.c_str(), r->speedup_vs_scalar);
        ok = false;
      }
    }
  }
  return ok;
}

// ---------------------------------------------------------------------------
// google-benchmark suite (unchanged workloads)
// ---------------------------------------------------------------------------

void BM_TransitionMatrix(benchmark::State& state) {
  Mat4 p{};
  double t = 0.01;
  for (auto _ : state) {
    f84_model().transition(t, p);
    benchmark::DoNotOptimize(p);
    t += 1e-6;
  }
}
BENCHMARK(BM_TransitionMatrix);

void BM_TransitionWithDerivatives(benchmark::State& state) {
  Mat4 p{};
  Mat4 dp{};
  Mat4 d2p{};
  double t = 0.01;
  for (auto _ : state) {
    f84_model().transition_with_derivs(t, p, dp, d2p);
    benchmark::DoNotOptimize(d2p);
    t += 1e-6;
  }
}
BENCHMARK(BM_TransitionWithDerivatives);

void BM_TransitionMatrixCached(benchmark::State& state) {
  TransitionCache cache(512);
  Mat4 p{};
  int i = 0;
  for (auto _ : state) {
    // Cycle a fixed set of lengths: steady-state behaviour of smoothing,
    // where the same effective lengths recur pass after pass.
    cache.transition(f84_model(), 0.01 + i * 1e-3, p);
    benchmark::DoNotOptimize(p);
    i = (i + 1) & 63;
  }
  state.counters["hit_rate"] = cache.hit_rate();
  state.counters["evictions"] = static_cast<double>(cache.evictions());
}
BENCHMARK(BM_TransitionMatrixCached);

struct EngineFixture {
  EngineFixture(int taxa, std::size_t sites)
      : alignment(make_paper_like_dataset(taxa, sites, 7)),
        data(alignment),
        engine(data, f84_model(), RateModel::uniform()),
        rng(3),
        tree(random_tree(taxa, rng)) {
    engine.attach(tree);
  }
  Alignment alignment;
  PatternAlignment data;
  LikelihoodEngine engine;
  Rng rng;
  Tree tree;
};

void BM_FullTreeLikelihood(benchmark::State& state) {
  EngineFixture fx(static_cast<int>(state.range(0)),
                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    fx.engine.invalidate_all();
    benchmark::DoNotOptimize(fx.engine.log_likelihood());
  }
  state.SetLabel(std::to_string(fx.data.num_patterns()) + " patterns, " +
                 fx.engine.counters().simd_backend);
}
BENCHMARK(BM_FullTreeLikelihood)
    ->Args({20, 500})
    ->Args({50, 1858})
    ->Args({150, 1269});

void BM_EdgeLikelihoodEvaluate(benchmark::State& state) {
  EngineFixture fx(50, 1858);
  const auto [u, v] = fx.tree.edges()[5];
  const EdgeLikelihood f = fx.engine.edge_likelihood(u, v);
  double t = 0.05;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.derivatives(t));
    t = t < 0.5 ? t + 1e-4 : 0.05;
  }
  const KernelCounters counters = fx.engine.counters();
  state.counters["cache_hit_rate"] = counters.transition_hit_rate();
  state.counters["scratch_MB_reused"] =
      static_cast<double>(counters.scratch_bytes_reused) / (1024.0 * 1024.0);
}
BENCHMARK(BM_EdgeLikelihoodEvaluate);

void BM_NewtonOptimizeEdge(benchmark::State& state) {
  EngineFixture fx(50, 1858);
  BranchOptimizer optimizer(fx.engine);
  const auto edges = fx.tree.edges();
  std::size_t e = 0;
  for (auto _ : state) {
    const auto [u, v] = edges[e % edges.size()];
    fx.tree.set_length(u, v, 0.1);
    fx.engine.on_length_changed(u, v);
    benchmark::DoNotOptimize(optimizer.optimize_edge(fx.tree, u, v));
    ++e;
  }
  state.counters["cache_hit_rate"] = fx.engine.counters().transition_hit_rate();
}
BENCHMARK(BM_NewtonOptimizeEdge);

void BM_FullSmooth(benchmark::State& state) {
  EngineFixture fx(static_cast<int>(state.range(0)), 1000);
  BranchOptimizer optimizer(fx.engine);
  for (auto _ : state) {
    for (const auto& [u, v] : fx.tree.edges()) fx.tree.set_length(u, v, 0.1);
    fx.engine.invalidate_all();
    benchmark::DoNotOptimize(optimizer.smooth(fx.tree, 2));
  }
}
BENCHMARK(BM_FullSmooth)->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);

void BM_PatternCompression(benchmark::State& state) {
  const Alignment alignment =
      make_paper_like_dataset(static_cast<int>(state.range(0)), 1858, 7);
  for (auto _ : state) {
    const PatternAlignment data(alignment);
    benchmark::DoNotOptimize(data.num_patterns());
  }
}
BENCHMARK(BM_PatternCompression)->Arg(50)->Arg(101)->Unit(benchmark::kMillisecond);

void BM_FitchScore(benchmark::State& state) {
  EngineFixture fx(50, 1858);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fitch_score(fx.tree, fx.data));
  }
}
BENCHMARK(BM_FitchScore);

void BM_TopologyHash(benchmark::State& state) {
  Rng rng(5);
  const Tree tree = random_tree(static_cast<int>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology_hash(tree));
  }
}
BENCHMARK(BM_TopologyHash)->Arg(50)->Arg(150);

void BM_NewickRoundTrip(benchmark::State& state) {
  Rng rng(5);
  const int taxa = 150;
  const Tree tree = random_tree(taxa, rng);
  const auto names = default_taxon_names(taxa);
  for (auto _ : state) {
    const std::string text = to_newick(tree, names, 17);
    benchmark::DoNotOptimize(tree_from_newick(text, names));
  }
}
BENCHMARK(BM_NewickRoundTrip);

void BM_SimulateAlignment(benchmark::State& state) {
  Rng rng(7);
  const Tree tree = random_yule_tree(50, rng);
  SimulateOptions options;
  options.num_sites = 1858;
  for (auto _ : state) {
    Rng sim(11);
    benchmark::DoNotOptimize(simulate_alignment(tree, default_taxon_names(50),
                                                f84_model(), RateModel::uniform(),
                                                options, sim));
  }
}
BENCHMARK(BM_SimulateAlignment)->Unit(benchmark::kMillisecond);

/// Cost contract of the observability layer (obs/trace.hpp): when tracing
/// is disabled, an instrumented call site pays one relaxed atomic load.
/// Measures the real disabled-Span cost and compares it against the
/// fastest edge_evaluate per-call time from the sweep — the hot kernel an
/// over-eager instrumentation pass would hurt first. Baseline-independent:
/// both sides are measured on this host, this build.
bool check_span_overhead(const std::vector<SweepResult>& results) {
  if (obs::trace_enabled()) {
    std::fprintf(stderr, "span-overhead: tracing unexpectedly enabled\n");
    return false;
  }
  constexpr int kIters = 1 << 20;
  using Clock = std::chrono::steady_clock;
  double best_ns = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      obs::Span span("bench", "overhead", "i", i);
      benchmark::DoNotOptimize(&span);
    }
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - start)
                                .count()) /
        kIters;
    best_ns = std::min(best_ns, ns);
  }

  double best_call_ns = 1e300;
  for (const SweepResult& r : results) {
    if (r.kernel != "edge_evaluate") continue;
    // patterns_per_s = padded patterns / seconds-per-call.
    const double call_ns =
        static_cast<double>(kSweepPatterns) / r.patterns_per_s * 1e9;
    best_call_ns = std::min(best_call_ns, call_ns);
  }
  if (best_call_ns >= 1e300) {
    std::fprintf(stderr, "span-overhead: no edge_evaluate row in sweep\n");
    return false;
  }
  const double fraction = best_ns / best_call_ns;
  std::printf("disabled-span overhead: %.2f ns/span vs %.0f ns/edge_evaluate "
              "(%.3f%%, contract < 2%%)\n",
              best_ns, best_call_ns, fraction * 100.0);
  if (fraction >= 0.02) {
    std::fprintf(stderr,
                 "span-overhead: %.3f%% >= 2%% — disabled tracing is no "
                 "longer free\n",
                 fraction * 100.0);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string check_path;
  double tolerance = 0.2;
  bool check_absolute = false;
  bool sweep_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      sweep_only = true;
    } else if (arg.rfind("--check=", 0) == 0) {
      check_path = arg.substr(8);
      sweep_only = true;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg == "--check-absolute") {
      check_absolute = true;
    } else if (arg == "--sweep-only") {
      sweep_only = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  std::vector<SweepResult> results = run_backend_sweep();
  double hit_rate = 0.0;
  run_full_tree_sweep(results, &hit_rate);

  std::printf("SIMD kernel sweep (%zu padded patterns, %zu categories)\n",
              kSweepPatterns, kSweepCats);
  std::printf("%-16s %-8s %14s %9s %9s\n", "kernel", "backend", "patterns/s",
              "GFLOP/s", "vs scalar");
  for (const SweepResult& r : results) {
    std::printf("%-16s %-8s %14.3e %9.2f %8.2fx\n", r.kernel.c_str(),
                r.backend.c_str(), r.patterns_per_s, r.gflops,
                r.speedup_vs_scalar);
  }

  if (!json_path.empty()) {
    write_sweep_json(json_path, results, hit_rate);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!check_path.empty()) {
    if (!check_against_baseline(check_path, results, tolerance,
                                check_absolute)) {
      std::fprintf(stderr, "bench_kernels: throughput check FAILED against %s\n",
                   check_path.c_str());
      return 1;
    }
    std::printf("throughput check passed against %s (tolerance %.0f%%)\n",
                check_path.c_str(), tolerance * 100.0);
    if (!check_span_overhead(results)) {
      std::fprintf(stderr,
                   "bench_kernels: disabled-tracing overhead check FAILED\n");
      return 1;
    }
  }
  if (sweep_only) return 0;

  int bargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bargc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
