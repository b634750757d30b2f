#include "likelihood/evaluator.hpp"

#include <utility>

#include "util/timer.hpp"

namespace fdml {

TreeEvaluator::TreeEvaluator(const PatternAlignment& data, SubstModel model,
                             RateModel rates)
    : engine_(data, std::move(model), std::move(rates)), optimizer_(engine_) {}

Evaluation TreeEvaluator::evaluate(Tree& tree) {
  CpuTimer timer;
  engine_.attach(tree);
  Evaluation out;
  out.log_likelihood = optimizer_.smooth(tree);
  out.cpu_seconds = timer.seconds();
  return out;
}

}  // namespace fdml
