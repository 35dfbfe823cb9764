// Figure 2: page access-frequency distribution per managed allocation for
// fdtd (regular: uniform density, few hot lines) and sssp (irregular: hot
// read-write status arrays vs cold read-only edge data). Prints per-
// allocation summaries and writes the full per-page histograms to CSV.
#include <fstream>

#include "harness.hpp"
#include "trace/trace.hpp"

namespace {

void characterize(const std::string& name) {
  using namespace uvmsim;
  using namespace uvmsim::bench;

  WorkloadParams params;
  params.scale = kScale;
  SimConfig cfg = scheme_config(PolicyKind::kFirstTouch);
  cfg.collect_traces = true;

  AddressSpace sizing;
  make_workload(name, params)->build(sizing);
  PageHistogram hist(sizing);

  auto wl = make_workload(name, params);
  Simulator sim(cfg);
  RunOptions opts;
  opts.trace_sink = &hist;
  (void)sim.run(*wl, opts);

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
  std::ofstream out(csv);
  hist.write_csv(out);
  std::printf("full per-page histogram written to %s\n", csv.c_str());
}

}  // namespace

int main() {
  uvmsim::bench::print_header(
      "Figure 2: page access distribution, type of access per allocation",
      "fdtd (regular) vs sssp (irregular)");
  characterize("fdtd");
  characterize("sssp");
  std::printf(
      "\nExpected shape (paper Fig 2): fdtd allocations are accessed at a\n"
      "near-uniform frequency with a few equally spaced hot pages; sssp has\n"
      "hot read-write status arrays and cold read-only edge/weight arrays.\n");
  return 0;
}
