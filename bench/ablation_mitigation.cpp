// Ablation: the state-of-practice per-block thrash throttling (nvidia-uvm
// style, paper §I) vs the paper's adaptive framework, at 125 %
// oversubscription. Quantifies how much of the adaptive win plain
// throttling recovers — and where each approach leaves performance behind.
#include "harness.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  print_header("Ablation: thrash throttling vs adaptive framework (125% oversub)",
               "runtime normalized to the unmitigated Baseline");
  print_row_header({"Baseline", "throttle", "Adaptive", "thr_remote"});

  SimConfig throttled = scheme_config(PolicyKind::kFirstTouch);
  throttled.mitigation.enabled = true;
  const std::vector<Column> columns{{scheme_config(PolicyKind::kFirstTouch), 1.25},
                                    {throttled, 1.25},
                                    {scheme_config(PolicyKind::kAdaptive), 1.25}};

  for (const auto& [name, cells] : run_grid(workload_names(), columns)) {
    const double b = cycles(cells[0]);
    print_row(name, {1.0, cycles(cells[1]) / b, cycles(cells[2]) / b,
                     static_cast<double>(cells[1].stats.remote_accesses)});
  }

  std::printf(
      "\nReading: per-block pinning recovers much of the thrash cost on the\n"
      "extreme workloads (it converges to hard host-pinning, the p=2^20\n"
      "configuration of Fig 8), but it is reactive — each block must thrash\n"
      "several times before being pinned — and page-wise throttling forfeits\n"
      "bulk prefetching, which is the paper's §I criticism of this approach.\n"
      "The adaptive framework reaches similar or better points proactively.\n");
  return 0;
}
