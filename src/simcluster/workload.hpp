// Analytic workload synthesis and kernel calibration.
//
// Replaying a *recorded* trace is exact but requires running the search.
// For studies beyond what one core can run live (e.g. the paper's
// prediction that scalability falls off at 100-200 processors, examined on
// 150-250 taxa), this module synthesizes traces with the algorithm's exact
// round/task structure — insertion rounds of (2i-5) tasks, rearrangement
// rounds whose candidate counts come from enumerating real rearrangement
// moves on random topologies — and per-task costs from a calibrated kernel
// cost model (cost is linear in sites x branches x smoothing passes, with
// lognormal noise producing the paper's loose synchronization). Pass counts
// are the worker's: kFullSmoothPasses and kQuickAddPasses.
#pragma once

#include <cstddef>

#include "model/rates.hpp"
#include "model/submodel.hpp"
#include "search/trace.hpp"
#include "seq/alignment.hpp"
#include "util/rng.hpp"

namespace fdml {

/// Calibrated cost model for one worker task.
struct WorkloadModel {
  /// Seconds per (site x edge x smoothing pass) of a full optimization.
  double full_cost_coefficient = 2e-8;
  /// Seconds per site of a quick-add (3-edge) evaluation.
  double quickadd_cost_coefficient = 6e-8;
  /// Master seconds per generated candidate (topology cloning, hashing).
  double master_cost_per_candidate = 2e-6;
  /// Coefficient of variation of the lognormal task-cost noise (drives
  /// barrier slack; measured traces show ~0.2-0.5).
  double cost_noise_cv = 0.3;
  /// Probability that a rearrangement round finds an improvement and
  /// triggers another round.
  double rearrange_accept_probability = 0.35;
  /// Representative wire bytes per task+result pair.
  double bytes_per_task_base = 300.0;
  double bytes_per_task_per_taxon = 30.0;
};

/// Measures the two cost coefficients by timing real evaluations of random
/// trees over `data`, so synthesized traces inherit this machine's kernel
/// speed. `sample_tasks` controls how many timings are averaged.
WorkloadModel calibrate_workload(const PatternAlignment& data,
                                 const SubstModel& model, const RateModel& rates,
                                 int sample_tasks = 4);

/// Synthesizes a full-search trace for `taxa` x `sites` with rearrangement
/// setting `cross` (the paper's "number of vertices crossed").
SearchTrace synthesize_trace(int taxa, std::size_t sites, int cross,
                             const WorkloadModel& model, Rng& rng);

}  // namespace fdml
