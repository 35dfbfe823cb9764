// Multi-GPU scaling (the paper's §VIII future work): run a collaborative
// irregular workload across 1, 2 and 4 GPUs at a fixed aggregate memory
// budget (125 % oversubscribed in total) and compare the baseline driver
// with the adaptive dynamic-threshold driver on each node.
//
// NVIDIA's guidance (quoted in the paper §VI) is to spread work over more
// GPUs once oversubscription exceeds 125 % — this example shows what the
// adaptive heuristic buys in exactly that setting.
#include <cstdio>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

MultiGpuResult run_multi(const std::string& workload, PolicyKind policy,
                         std::uint32_t gpus, double oversub) {
  WorkloadParams params;
  params.scale = 0.5;
  auto wl = make_workload(workload, params);

  SimConfig cfg = scheme_config(policy);
  cfg.mem.oversubscription = oversub;

  MultiGpuSimulator sim(cfg, MultiGpuConfig{gpus, /*split_capacity=*/true});
  return sim.run(*wl);
}

}  // namespace

int main() {
  const SimConfig ref;  // for cycle -> ms conversion
  std::printf("sssp, aggregate capacity fixed at footprint/1.25, split across GPUs\n\n");
  std::printf("%6s %14s %14s %12s %16s\n", "GPUs", "baseline(ms)", "adaptive(ms)",
              "speedup", "thrash reduction");

  for (const std::uint32_t gpus : {1u, 2u, 4u}) {
    const MultiGpuResult base = run_multi("sssp", PolicyKind::kFirstTouch, gpus, 1.25);
    const MultiGpuResult adpt = run_multi("sssp", PolicyKind::kAdaptive, gpus, 1.25);
    const double base_ms =
        static_cast<double>(base.makespan) / (ref.gpu.core_clock_ghz * 1e6);
    const double adpt_ms =
        static_cast<double>(adpt.makespan) / (ref.gpu.core_clock_ghz * 1e6);
    const double thrash_cut =
        base.aggregate.pages_thrashed == 0
            ? 0.0
            : 1.0 - static_cast<double>(adpt.aggregate.pages_thrashed) /
                        static_cast<double>(base.aggregate.pages_thrashed);
    std::printf("%6u %14.2f %14.2f %11.2fx %15.1f%%\n", gpus, base_ms, adpt_ms,
                base_ms / adpt_ms, thrash_cut * 100.0);
  }

  std::printf(
      "\nEach GPU throttles its own migrations with the dynamic threshold, so\n"
      "the aggregate thrash falls on every node and the collaboration scales\n"
      "without the baseline's PCIe churn.\n");
  return 0;
}
