// Thrash timeline: watch the memory system's temporal behaviour under
// oversubscription. Runs bfs at 125 % with the baseline and the adaptive
// driver, sampling every registered metric every 100k cycles through the
// metrics recorder, prints a coarse console plot of cumulative thrash, and
// writes the full series to CSV for plotting.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include <uvmsim/uvmsim.hpp>

namespace {

using namespace uvmsim;

obs::MetricsRecorder run_with_metrics(PolicyKind policy, const char* csv_path) {
  WorkloadParams params;
  params.scale = 0.5;
  SimConfig cfg = scheme_config(policy);
  cfg.mem.oversubscription = 1.25;

  auto wl = make_workload("bfs", params);
  obs::MetricsRecorder metrics;
  Simulator sim(cfg);
  RunOptions opts;
  opts.metrics = &metrics;
  opts.metrics_interval = 100000;
  (void)sim.run(*wl, opts);

  std::ofstream out(csv_path);
  metrics.write_csv(out);
  if (!(out << std::flush)) {
    std::fprintf(stderr, "cannot write %s\n", csv_path);
    std::exit(1);
  }
  return metrics;
}

void sketch(const char* label, const obs::MetricsRecorder& rec) {
  // Render thrash progression as a sparkline over up to 60 buckets.
  const auto& s = rec.samples();
  if (s.empty()) return;
  const std::size_t thrashed =
      static_cast<std::size_t>(obs::find_metric("pages_thrashed") - obs::metrics().data());
  const std::size_t buckets = std::min<std::size_t>(60, s.size());
  const double max_thrash = static_cast<double>(
      std::max<std::uint64_t>(1, s.back().values[thrashed]));
  std::printf("%-9s |", label);
  for (std::size_t i = 0; i < buckets; ++i) {
    const auto& sample = s[i * s.size() / buckets];
    const double frac = static_cast<double>(sample.values[thrashed]) / max_thrash;
    std::printf("%c", frac < 0.02 ? '.' : frac < 0.25 ? ':' : frac < 0.6 ? '+' : '#');
  }
  std::printf("| thrashed=%llu pages, %zu samples\n",
              static_cast<unsigned long long>(s.back().values[thrashed]), s.size());
}

}  // namespace

int main() {
  std::printf("bfs at 125%% oversubscription: cumulative thrash over time\n\n");
  const obs::MetricsRecorder base =
      run_with_metrics(PolicyKind::kFirstTouch, "timeline_baseline.csv");
  const obs::MetricsRecorder adpt =
      run_with_metrics(PolicyKind::kAdaptive, "timeline_adaptive.csv");
  sketch("baseline", base);
  sketch("adaptive", adpt);
  std::printf(
      "\nFull series written to timeline_baseline.csv / timeline_adaptive.csv\n"
      "(columns: cycle, occupancy, used_blocks, capacity_blocks, then every\n"
      " registered metric as cumulative + _delta; docs/OBSERVABILITY.md).\n");
  return 0;
}
