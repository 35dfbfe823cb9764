// Regular stencil workload (fdtd): shows that the adaptive driver does not
// regress dense, sequential applications — with or without memory pressure —
// and inspects where the time goes (migration vs writeback vs compute).
#include <cstdio>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

void report(const char* label, const SimConfig& cfg, const RunResult& r) {
  std::printf("%-22s %9.2f ms | faults %7llu | H2D %6.1f MB | D2H %6.1f MB | remote %8llu\n",
              label, r.kernel_ms(cfg.gpu.core_clock_ghz),
              static_cast<unsigned long long>(r.stats.far_faults),
              static_cast<double>(r.stats.bytes_h2d) / (1 << 20),
              static_cast<double>(r.stats.bytes_d2h) / (1 << 20),
              static_cast<unsigned long long>(r.stats.remote_accesses));
}

}  // namespace

int main() {
  WorkloadParams params;
  params.scale = 0.25;

  SimConfig baseline;  // first-touch + LRU + tree prefetcher
  const SimConfig adaptive = scheme_config(PolicyKind::kAdaptive);

  std::printf("fdtd — iterative 3-array stencil (regular access pattern)\n\n");

  std::printf("working set fits in device memory:\n");
  report("  baseline", baseline, run_workload("fdtd", baseline, 0.0, params));
  report("  adaptive", adaptive, run_workload("fdtd", adaptive, 0.0, params));

  std::printf("\n125%% oversubscription (cyclic reuse > capacity):\n");
  const RunResult b = run_workload("fdtd", baseline, 1.25, params);
  const RunResult a = run_workload("fdtd", adaptive, 1.25, params);
  report("  baseline", baseline, b);
  report("  adaptive", adaptive, a);

  std::printf("\nPer-kernel timing of the oversubscribed adaptive run (first 9 launches):\n");
  for (std::size_t i = 0; i < a.kernels.size() && i < 9; ++i) {
    std::printf("  launch %2zu %-12s %9.3f ms\n", i, a.kernels[i].name.c_str(),
                static_cast<double>(a.kernels[i].duration()) /
                    (adaptive.gpu.core_clock_ghz * 1e6));
  }

  std::printf(
      "\nExpected: adaptive ~= baseline in both regimes. Dense sequential\n"
      "access drives per-block counters over the dynamic threshold almost\n"
      "immediately, so the adaptive driver behaves like first-touch + prefetch.\n");
  return 0;
}
