// Ablation: prefetcher choice under the Baseline driver, with the working
// set fitting and at 125 % oversubscription. Reproduces the paper's §III-A
// observation that the (otherwise superior) tree prefetcher turns
// counter-productive under memory pressure on irregular workloads.
#include "harness.hpp"

int main() {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  const std::vector<std::pair<std::string, PrefetcherKind>> prefetchers{
      {"none", PrefetcherKind::kNone},
      {"seq", PrefetcherKind::kSequential},
      {"rand", PrefetcherKind::kRandom},
      {"tree", PrefetcherKind::kTree},
  };

  // Per oversubscription, one column per prefetcher: "none" first, "tree" last.
  std::vector<Column> columns;
  for (const double oversub : {0.0, 1.25}) {
    for (const auto& [label, kind] : prefetchers) {
      SimConfig cfg = scheme_config(PolicyKind::kFirstTouch);
      cfg.mem.prefetcher = kind;
      columns.push_back({cfg, oversub});
    }
  }
  const auto rows = run_grid(workload_names(), columns);

  for (std::size_t none = 0; none < columns.size(); none += prefetchers.size()) {
    print_header(columns[none].oversub == 0.0
                     ? "Ablation: prefetchers, working set fits"
                     : "Ablation: prefetchers, 125% oversubscription",
                 "Baseline driver; runtime normalized to the no-prefetch run");
    std::printf("%-10s", "workload");
    for (const auto& [label, _] : prefetchers) std::printf(" %10s", label.c_str());
    std::printf(" %12s\n", "tree_pref_MB");

    const std::size_t tree = none + prefetchers.size() - 1;
    for (const auto& [name, cells] : rows) {
      std::printf("%-10s", name.c_str());
      for (std::size_t c = none; c <= tree; ++c) {
        std::printf(" %10.2f", cycles(cells[c]) / cycles(cells[none]));
      }
      const std::uint64_t tree_pref_bytes = cells[tree].stats.blocks_prefetched * kBasicBlockSize;
      std::printf(" %12.1f\n", static_cast<double>(tree_pref_bytes) / (1 << 20));
    }
  }

  std::printf(
      "\nReading: with the working set fitting, the tree prefetcher is the\n"
      "best choice across the board (fewer far-faults, bulk transfers);\n"
      "under oversubscription its aggressive pulls evict useful data on the\n"
      "irregular workloads and the advantage shrinks or reverses.\n");
  return 0;
}
