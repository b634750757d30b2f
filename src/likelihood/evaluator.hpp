// TreeEvaluator: the "worker computation" of the paper — given a candidate
// topology, optimize its branch lengths and return the log-likelihood.
// Bundles an engine and optimizer so one instance can be reused across the
// hundreds of thousands of candidate trees a search dispatches.
#pragma once

#include "likelihood/engine.hpp"
#include "likelihood/optimize.hpp"

namespace fdml {

struct Evaluation {
  double log_likelihood = 0.0;
  /// Thread-CPU seconds spent (recorded for the scaling-trace replays).
  double cpu_seconds = 0.0;
};

class TreeEvaluator {
 public:
  /// `data` must outlive the evaluator; model and rates are copied in.
  TreeEvaluator(const PatternAlignment& data, SubstModel model,
                RateModel rates);

  /// Full evaluation: optimize every branch (kFullSmoothPasses smoothing
  /// passes at most) and return the likelihood. The tree is updated in
  /// place.
  Evaluation evaluate(Tree& tree);

  LikelihoodEngine& engine() { return engine_; }
  BranchOptimizer& optimizer() { return optimizer_; }

 private:
  LikelihoodEngine engine_;
  BranchOptimizer optimizer_;
};

}  // namespace fdml
