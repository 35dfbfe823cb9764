// Extension experiment: does the adaptive heuristic generalize to access
// patterns the paper did not evaluate? Runs the extra workload suite
// (kmeans, histogram, spmv, pagerank) through the Fig 6 protocol.
#include "harness.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  print_header("Extension: generalization suite at 125% oversubscription",
               "runtime normalized to Baseline (first-touch + LRU); ts=8, p=8");
  print_row_header({"Baseline", "Always", "Oversub", "Adaptive"});

  for (const auto& name : extra_workload_names()) {
    const RunResult base = run(name, scheme_config(PolicyKind::kFirstTouch), 1.25);
    const RunResult always = run(name, scheme_config(PolicyKind::kStaticAlways), 1.25);
    const RunResult oversub = run(name, scheme_config(PolicyKind::kStaticOversub), 1.25);
    const RunResult adaptive = run(name, scheme_config(PolicyKind::kAdaptive), 1.25);
    const auto b = static_cast<double>(base.stats.kernel_cycles);
    print_row(name, {1.0, static_cast<double>(always.stats.kernel_cycles) / b,
                     static_cast<double>(oversub.stats.kernel_cycles) / b,
                     static_cast<double>(adaptive.stats.kernel_cycles) / b});
  }

  std::printf("\nNo-oversubscription parity check (Adaptive vs Baseline, fits):\n");
  for (const auto& name : extra_workload_names()) {
    const RunResult base = run(name, scheme_config(PolicyKind::kFirstTouch), 0.0);
    const RunResult adaptive = run(name, scheme_config(PolicyKind::kAdaptive), 0.0);
    std::printf("  %-10s %.3f\n", name.c_str(),
                static_cast<double>(adaptive.stats.kernel_cycles) /
                    static_cast<double>(base.stats.kernel_cycles));
  }

  std::printf(
      "\nReading: the interesting case is pagerank — its edge list is cold\n"
      "by frequency but re-streamed every iteration, so hard pinning it is\n"
      "a bandwidth mistake; the dynamic threshold's round-trip hardening\n"
      "has to balance against that. kmeans/histogram should behave like the\n"
      "paper's regular workloads (unharmed).\n");
  return 0;
}
