// Extension experiment: how input-dependent is the headline result? Runs
// the Fig 6 comparison across several workload seeds (different random
// graphs / tables) and reports the spread of the adaptive-vs-baseline
// runtime ratio. The paper reports single-input numbers; this bench shows
// the conclusion is not an artifact of one lucky input.
#include "harness.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  constexpr std::size_t kSeeds = 5;
  print_header("Extension: seed sensitivity of the Fig 6 result (125% oversub)",
               "adaptive/baseline kernel-time ratio over 5 random inputs");
  std::printf("%-10s %10s %10s %10s %10s %8s\n", "workload", "mean", "stddev", "min",
              "max", "cv");

  // Per seed, a Baseline column and then an Adaptive one.
  std::vector<Column> columns;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    WorkloadParams params = params_at(0.5);
    params.seed += i;
    columns.push_back({scheme_config(PolicyKind::kFirstTouch), 1.25, params});
    columns.push_back({scheme_config(PolicyKind::kAdaptive), 1.25, params});
  }

  for (const auto& [name, cells] : run_grid(irregular_names(), columns)) {
    std::vector<double> ratios;
    for (std::size_t c = 0; c < cells.size(); c += 2) {
      ratios.push_back(cycles(cells[c + 1]) / cycles(cells[c]));
    }
    const SampleStats s = summarize_samples(ratios);
    std::printf("%-10s %10.3f %10.3f %10.3f %10.3f %7.1f%%\n", name.c_str(), s.mean,
                s.stddev, s.min, s.max, s.cv() * 100.0);
  }

  std::printf(
      "\nReading: a ratio < 1 across the whole [min, max] range means the\n"
      "adaptive scheme wins on every sampled input, not just the default.\n");
  return 0;
}
