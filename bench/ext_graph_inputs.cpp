// Extension experiment: input-structure sensitivity. The paper's graph
// benchmarks come from suites whose inputs range from Rodinia-style random
// graphs (few huge frontiers) to Lonestar road networks (high diameter,
// tiny frontiers). This bench runs bfs/sssp on both structures and shows
// how the input regime changes the oversubscription pathology and how much
// the adaptive scheme recovers in each.
#include "harness.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  print_header("Extension: graph input structure (125% oversubscription)",
               "per input: Baseline slowdown vs fits, and Adaptive/Baseline ratio");
  std::printf("%-8s %-10s %14s %16s %14s\n", "app", "input", "base-slowdown",
              "adaptive-ratio", "base-thrash-MB");

  for (const auto& app : {"bfs", "sssp"}) {
    for (const auto& graph : {"powerlaw", "road"}) {
      WorkloadParams params;
      params.scale = kScale;
      params.graph = graph;

      SimConfig base_cfg = scheme_config(PolicyKind::kFirstTouch);
      SimConfig adpt_cfg = scheme_config(PolicyKind::kAdaptive);

      const RunResult fits = run_workload(app, base_cfg, 0.0, params);
      const RunResult base = run_workload(app, base_cfg, 1.25, params);
      const RunResult adpt = run_workload(app, adpt_cfg, 1.25, params);

      std::printf("%-8s %-10s %14.2f %16.3f %14.1f\n", app, graph,
                  static_cast<double>(base.stats.kernel_cycles) /
                      static_cast<double>(fits.stats.kernel_cycles),
                  static_cast<double>(adpt.stats.kernel_cycles) /
                      static_cast<double>(base.stats.kernel_cycles),
                  static_cast<double>(base.stats.pages_thrashed) * kPageSize / (1 << 20));
    }
  }

  std::printf(
      "\nReading: the two input structures stress different parts of the\n"
      "memory system. Power-law inputs touch most of the edge array every\n"
      "level (sparse-phase thrash); road inputs run hundreds of tiny levels\n"
      "whose Rodinia-style dense status scans pay the cyclic-reuse thrash\n"
      "repeatedly. The adaptive scheme should win in both regimes.\n");
  return 0;
}
