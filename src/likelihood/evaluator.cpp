#include "likelihood/evaluator.hpp"

#include <utility>

#include "util/timer.hpp"

namespace fdml {

TreeEvaluator::TreeEvaluator(const PatternAlignment& data, SubstModel model,
                             RateModel rates, OptimizeOptions options)
    : engine_(data, std::move(model), std::move(rates)),
      optimizer_(engine_, options) {}

Evaluation TreeEvaluator::evaluate(Tree& tree, int max_passes) {
  CpuTimer timer;
  engine_.attach(tree);
  Evaluation out;
  out.log_likelihood =
      max_passes < 0 ? optimizer_.smooth(tree) : optimizer_.smooth(tree, max_passes);
  out.cpu_seconds = timer.seconds();
  return out;
}

}  // namespace fdml
