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

  // Per input: Baseline fitting, Baseline and Adaptive oversubscribed.
  const std::vector<std::string> graphs{"powerlaw", "road"};
  std::vector<Column> columns;
  for (const std::string& graph : graphs) {
    WorkloadParams params = params_at(kScale);
    params.graph = graph;
    columns.push_back({scheme_config(PolicyKind::kFirstTouch), 0.0, params});
    columns.push_back({scheme_config(PolicyKind::kFirstTouch), 1.25, params});
    columns.push_back({scheme_config(PolicyKind::kAdaptive), 1.25, params});
  }

  for (const auto& [app, cells] : run_grid({"bfs", "sssp"}, columns)) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const RunResult* input = &cells[3 * g];
      std::printf("%-8s %-10s %14.2f %16.3f %14.1f\n", app.c_str(), graphs[g].c_str(),
                  cycles(input[1]) / cycles(input[0]), cycles(input[2]) / cycles(input[1]),
                  static_cast<double>(input[1].stats.pages_thrashed) * kPageSize / (1 << 20));
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
