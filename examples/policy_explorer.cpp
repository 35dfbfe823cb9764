// Policy explorer: sweep the two driver module parameters (ts, p) for one
// workload and print a runtime heat map — the tuning view a driver engineer
// would use before picking defaults. The whole ts x p grid (plus the
// baseline reference) is described upfront as RunRequests and fanned out on
// the parallel batch engine.
//
// Usage: policy_explorer [workload] [oversub] [jobs]
//   workload: backprop|fdtd|hotspot|srad|bfs|nw|ra|sssp (default: sssp)
//   oversub:  working-set / device-capacity factor (default: 1.25)
//   jobs:     worker threads (default: hardware concurrency)
// A malformed number exits with status 2.
#include <cstdio>
#include <string>
#include <vector>

#include <uvmsim/uvmsim.hpp>

int main(int argc, char** argv) {
  using namespace uvmsim;

  const std::string workload = argc > 1 ? argv[1] : "sssp";
  double oversub = 1.25;
  unsigned jobs = 0;
  if ((argc > 2 && !parse_double(argv[2], oversub)) ||
      (argc > 3 && !parse_unsigned(argv[3], jobs))) {
    std::fprintf(stderr, "usage: policy_explorer [workload] [oversub] [jobs]\n");
    return 2;
  }

  WorkloadParams params;
  params.scale = 0.25;

  const std::vector<std::uint32_t> ts_values{4, 8, 16, 32};
  const std::vector<std::uint64_t> p_values{1, 2, 4, 8, 16};

  // Request 0 is the baseline; the rest are the ts x p grid in row order.
  std::vector<RunRequest> grid;
  {
    RunRequest base;
    base.workload = workload;
    base.params = params;
    base.oversub = oversub;
    grid.push_back(base);
  }
  for (const auto ts : ts_values) {
    for (const auto p : p_values) {
      RunRequest req;
      req.workload = workload;
      req.params = params;
      req.oversub = oversub;
      req.config = scheme_config(PolicyKind::kAdaptive);
      req.config.policy.static_threshold = ts;
      req.config.policy.migration_penalty = p;
      grid.push_back(std::move(req));
    }
  }

  BatchOptions opts;
  opts.jobs = jobs;
  const BatchResult batch = run_batch(grid, opts);
  for (const BatchEntry& e : batch.entries) {
    if (!e.ok()) {
      std::fprintf(stderr, "error (%s): %s\n", e.request.workload.c_str(), e.error.c_str());
      return 1;
    }
  }

  const RunResult& base = batch.entries[0].result;
  const auto base_cycles = static_cast<double>(base.stats.kernel_cycles);
  std::printf("%s at %.0f%% oversubscription — baseline %.2f ms (%zu runs in %.1f s, %u jobs)\n",
              workload.c_str(), oversub > 0 ? oversub * 100 : 100.0,
              base.kernel_ms(grid[0].config.gpu.core_clock_ghz), batch.entries.size(),
              batch.wall_ms / 1000.0, batch.jobs);

  std::printf("\nAdaptive runtime normalized to baseline (rows ts, cols p):\n");
  std::printf("%8s", "ts\\p");
  for (const auto p : p_values) std::printf(" %9llu", static_cast<unsigned long long>(p));
  std::printf("\n");

  double best = 1e300;
  std::uint32_t best_ts = 0;
  std::uint64_t best_p = 0;
  std::size_t i = 1;
  for (const auto ts : ts_values) {
    std::printf("%8u", ts);
    for (const auto p : p_values) {
      const RunResult& r = batch.entries[i++].result;
      const double norm = static_cast<double>(r.stats.kernel_cycles) / base_cycles;
      std::printf(" %9.3f", norm);
      if (norm < best) {
        best = norm;
        best_ts = ts;
        best_p = p;
      }
    }
    std::printf("\n");
  }

  std::printf("\nbest: ts=%u, p=%llu -> %.3fx of baseline\n", best_ts,
              static_cast<unsigned long long>(best_p), best);
  return 0;
}
