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

  // The four schemes at 125 %, then Baseline and Adaptive with the set fitting.
  const std::vector<Column> columns{{scheme_config(PolicyKind::kFirstTouch), 1.25},
                                    {scheme_config(PolicyKind::kStaticAlways), 1.25},
                                    {scheme_config(PolicyKind::kStaticOversub), 1.25},
                                    {scheme_config(PolicyKind::kAdaptive), 1.25},
                                    {scheme_config(PolicyKind::kFirstTouch), 0.0},
                                    {scheme_config(PolicyKind::kAdaptive), 0.0}};
  const auto rows = run_grid(extra_workload_names(), columns);

  for (const auto& [name, cells] : rows) {
    const double b = cycles(cells[0]);
    print_row(name, {1.0, cycles(cells[1]) / b, cycles(cells[2]) / b, cycles(cells[3]) / b});
  }

  std::printf("\nNo-oversubscription parity check (Adaptive vs Baseline, fits):\n");
  for (const auto& [name, cells] : rows) {
    std::printf("  %-10s %.3f\n", name.c_str(), cycles(cells[5]) / cycles(cells[4]));
  }

  std::printf(
      "\nReading: the interesting case is pagerank — its edge list is cold\n"
      "by frequency but re-streamed every iteration, so hard pinning it is\n"
      "a bandwidth mistake; the dynamic threshold's round-trip hardening\n"
      "has to balance against that. kmeans/histogram should behave like the\n"
      "paper's regular workloads (unharmed).\n");
  return 0;
}
