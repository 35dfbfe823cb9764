// Figure 2: page access-frequency distribution per managed allocation for
// fdtd (regular: uniform density, few hot lines) and sssp (irregular: hot
// read-write status arrays vs cold read-only edge data). Prints per-
// allocation summaries and writes the full per-page histograms to CSV.
#include "harness.hpp"
#include "trace/trace.hpp"

namespace {

using namespace uvmsim;
using namespace uvmsim::bench;

void print_distribution(const std::string& name, const PageHistogram& hist) {
  std::printf("\n%s: per-allocation page access distribution\n", name.c_str());
  std::printf("%-16s %9s %9s %9s %9s %12s %10s %8s\n", "allocation", "pages", "touched",
              "rd-only", "written", "accesses", "mean/page", "top10%");
  for (const auto& s : hist.summarize()) {
    std::printf("%-16s %9llu %9llu %9llu %9llu %12llu %10.1f %7.1f%%\n", s.name.c_str(),
                static_cast<unsigned long long>(s.pages),
                static_cast<unsigned long long>(s.touched_pages),
                static_cast<unsigned long long>(s.read_only_pages),
                static_cast<unsigned long long>(s.written_pages),
                static_cast<unsigned long long>(s.total_accesses),
                s.mean_accesses_per_touched_page, s.top_decile_share * 100.0);
  }

  const std::string csv = "fig2_" + name + "_pages.csv";
  write_csv(csv, hist);
  std::printf("full per-page histogram written to %s\n", csv.c_str());
}

}  // namespace

int main() {
  print_header("Figure 2: page access distribution, type of access per allocation",
               "fdtd (regular) vs sssp (irregular)");

  // A histogram maps pages to allocations through its workload's layout.
  const std::vector<std::string> names{"fdtd", "sssp"};
  std::vector<AddressSpace> layouts(names.size());
  std::vector<PageHistogram> hists;
  for (std::size_t w = 0; w < names.size(); ++w) {
    make_workload(names[w], params_at(kScale))->build(layouts[w]);
    hists.emplace_back(layouts[w]);
  }

  SimConfig cfg = scheme_config(PolicyKind::kFirstTouch);
  cfg.collect_traces = true;
  (void)run_grid(names, {{cfg, 0.0}}, [&](std::size_t w, std::size_t) {
    RunOptions opts;
    opts.trace_sink = &hists[w];
    return opts;
  });
  for (std::size_t w = 0; w < names.size(); ++w) print_distribution(names[w], hists[w]);

  std::printf(
      "\nExpected shape (paper Fig 2): fdtd allocations are accessed at a\n"
      "near-uniform frequency with a few equally spaced hot pages; sssp has\n"
      "hot read-write status arrays and cold read-only edge/weight arrays.\n");
  return 0;
}
