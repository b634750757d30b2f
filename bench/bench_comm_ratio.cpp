// Experiment: section 2's compute-to-communication claim — "there were
// hundreds of thousands of floating point operations performed in the
// analysis of a particular tree per byte of data transmitted back to the
// main program."
//
// Method: evaluate real worker tasks (full branch-length optimization of
// random topologies) over paper-sized alignments, counting kernel FLOPs via
// the engine's instrumentation and measuring the exact serialized size of
// the result message.
#include <cstdio>

#include "fdml.hpp"

int main(int argc, char** argv) {
  using namespace fdml;
  const CliArgs args(argc, argv);
  const int tasks = static_cast<int>(args.get_int("tasks", 3));

  std::printf("FLOPs per result byte, real worker tasks (F84, uniform rates)\n");
  std::printf("%6s %7s %10s %14s %14s %12s\n", "taxa", "sites", "patterns",
              "MFLOPs/task", "result bytes", "FLOPs/byte");

  struct Case {
    int taxa;
    std::size_t sites;
  };
  for (const Case c : {Case{50, 1858}, Case{101, 1858}, Case{150, 1269}}) {
    const Alignment alignment = make_paper_like_dataset(c.taxa, c.sites, 99);
    const PatternAlignment data(alignment);
    const SubstModel model =
        SubstModel::f84_from_tstv(data.base_frequencies(), 2.0);
    TaskEvaluator evaluator(data, model, RateModel::uniform());

    Rng rng(5);
    double total_flops = 0.0;
    double total_bytes = 0.0;
    for (int k = 0; k < tasks; ++k) {
      const Tree tree = random_tree(c.taxa, rng);
      TreeTask task;
      task.task_id = static_cast<std::uint64_t>(k);
      task.newick = to_newick(tree, data.names(), 17);
      task.focus_taxon = -1;
      const std::uint64_t before = evaluator.engine().flops();
      const TaskResult result = evaluator.evaluate(task);
      const std::uint64_t after = evaluator.engine().flops();
      Packer packer;
      result.pack(packer);
      total_flops += static_cast<double>(after - before);
      total_bytes += static_cast<double>(packer.size());
    }
    const double flops_per_task = total_flops / tasks;
    const double bytes_per_task = total_bytes / tasks;
    std::printf("%6d %7zu %10zu %14.1f %14.0f %12.0f\n", c.taxa, c.sites,
                data.num_patterns(), flops_per_task / 1e6, bytes_per_task,
                flops_per_task / bytes_per_task);
  }
  std::printf("\nPaper claim: 'hundreds of thousands of floating point "
              "operations ... per byte of data transmitted back'.\n");
  return 0;
}
