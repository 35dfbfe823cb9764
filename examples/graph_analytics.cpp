// Graph analytics under memory pressure: sweep oversubscription factors for
// BFS and SSSP and compare the four driver policies. This is the scenario
// the paper's introduction motivates — irregular, data-intensive workloads
// whose graphs outgrow device memory.
#include <cstdio>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

int main() {
  using namespace uvmsim;

  WorkloadParams params;
  params.scale = 0.25;

  const std::vector<std::pair<std::string, PolicyKind>> policies{
      {"baseline", PolicyKind::kFirstTouch},
      {"always", PolicyKind::kStaticAlways},
      {"oversub", PolicyKind::kStaticOversub},
      {"adaptive", PolicyKind::kAdaptive},
  };

  for (const std::string graph_app : {"bfs", "sssp"}) {
    std::printf("\n=== %s: kernel time (ms) vs oversubscription ===\n", graph_app.c_str());
    std::printf("%-10s", "policy");
    for (const double o : {0.0, 1.1, 1.25, 1.5}) {
      std::printf(o == 0.0 ? "        fits" : "      %4.0f%%", o * 100);
    }
    std::printf("\n");

    for (const auto& [label, kind] : policies) {
      std::printf("%-10s", label.c_str());
      for (const double o : {0.0, 1.1, 1.25, 1.5}) {
        const SimConfig cfg = scheme_config(kind);
        const RunResult r = run_workload(graph_app, cfg, o, params);
        std::printf("  %10.2f", r.kernel_ms(cfg.gpu.core_clock_ghz));
      }
      std::printf("\n");
    }
  }

  std::printf(
      "\nReading the table: under oversubscription the adaptive driver keeps\n"
      "cold graph edges host-pinned (zero-copy) and migrates only the hot\n"
      "status arrays, avoiding the thrashing that inflates the baseline.\n");
  return 0;
}
